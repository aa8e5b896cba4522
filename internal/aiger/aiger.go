// Package aiger reads and writes combinational AIGs in the AIGER format
// (http://fmv.jku.at/aiger/), both the ASCII ("aag") and the binary ("aig")
// variants. Latches are not supported: the optimization algorithms in this
// repository are purely combinational, matching the paper's benchmarks.
package aiger

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"aigre/internal/aig"
)

// maxHeaderCount bounds every AIGER header field: 2^26 nodes is well beyond
// the largest published benchmark suites while keeping a hostile header from
// driving a multi-gigabyte allocation before the body is even read. Slice
// pre-allocation is additionally clamped (maxPrealloc), so declared-but-
// absent body data cannot reserve memory either.
const (
	maxHeaderCount = 1 << 26
	maxPrealloc    = 1 << 20
)

func preallocHint(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// maxLineBytes bounds a single text line (header, literal lines, binary
// output lines). No legal AIGER line within the header limits comes anywhere
// near it; a longer "line" is a hostile or corrupt newline-free stream.
const maxLineBytes = 1 << 16

// maxBuf bounds the bufio buffer of Read and of the writers. A buffer is
// sized to its stream when the stream is smaller (bufSize): a daemon job of
// 5-28 KB used to pay for three fixed 1 MiB buffers, 59 % of everything the
// daemon allocated.
const maxBuf = 1 << 16

// bufSize returns the bufio buffer size for a stream of about n bytes.
func bufSize(n int) int {
	const minBuf = 512 // keeps header and literal lines out of readLine's slow path
	switch {
	case n < minBuf:
		return minBuf
	case n > maxBuf:
		return maxBuf
	}
	return n
}

// readLine reads one '\n'-terminated line of at most maxLineBytes bytes.
// Unlike bufio.Reader.ReadString, it never buffers more than the limit: a
// newline-free stream yields an error instead of allocating the stream into
// memory. The trailing newline, when present, is included (matching
// ReadString), and a final unterminated line is returned alongside io.EOF.
func readLine(br *bufio.Reader) (string, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(buf)+len(frag) > maxLineBytes {
			return "", fmt.Errorf("aiger: line exceeds %d bytes", maxLineBytes)
		}
		if err == nil {
			if buf == nil {
				return string(frag), nil
			}
			return string(append(buf, frag...)), nil
		}
		if err == bufio.ErrBufferFull {
			buf = append(buf, frag...)
			continue
		}
		return string(append(buf, frag...)), err
	}
}

// Read parses an AIGER file (ASCII or binary, auto-detected from the magic)
// into an AIG. Symbol tables and comments are skipped.
//
// Read never panics on malformed input: header fields are bounded before any
// allocation, and any residual panic in the construction path is converted
// into an error (the CLI turns it into a one-line diagnostic).
func Read(r io.Reader) (a *aig.AIG, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			a, err = nil, fmt.Errorf("aiger: malformed input: %v", rec)
		}
	}()
	size := maxBuf
	if l, ok := r.(interface{ Len() int }); ok { // bytes.Reader, bytes.Buffer, strings.Reader
		size = bufSize(l.Len())
	}
	br := bufio.NewReaderSize(r, size)
	header, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("aiger: reading header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) < 6 {
		return nil, fmt.Errorf("aiger: malformed header %q", strings.TrimSpace(header))
	}
	var nums [5]int
	for i := 0; i < 5; i++ {
		n, err := strconv.Atoi(fields[i+1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("aiger: bad header field %q", fields[i+1])
		}
		if n > maxHeaderCount {
			return nil, fmt.Errorf("aiger: header field %d exceeds limit %d", n, maxHeaderCount)
		}
		nums[i] = n
	}
	m, in, latches, out, ands := nums[0], nums[1], nums[2], nums[3], nums[4]
	if latches != 0 {
		return nil, fmt.Errorf("aiger: %d latches present; only combinational AIGs are supported", latches)
	}
	if m != in+ands {
		return nil, fmt.Errorf("aiger: header M=%d != I+A=%d", m, in+ands)
	}
	switch fields[0] {
	case "aag":
		return readASCII(br, in, out, ands)
	case "aig":
		return readBinary(br, in, out, ands)
	default:
		return nil, fmt.Errorf("aiger: unknown magic %q", fields[0])
	}
}

func readASCII(br *bufio.Reader, in, out, ands int) (*aig.AIG, error) {
	a := aig.NewCap(in, in+1+preallocHint(ands))
	readLits := func(n int) ([]uint64, error) {
		lits := make([]uint64, 0, preallocHint(n))
		for len(lits) < n {
			line, err := readLine(br)
			if err != nil && len(strings.TrimSpace(line)) == 0 {
				return nil, fmt.Errorf("aiger: unexpected EOF: %w", err)
			}
			for _, f := range strings.Fields(line) {
				v, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("aiger: bad literal %q", f)
				}
				lits = append(lits, v)
			}
		}
		return lits, nil
	}
	inLits, err := readLits(in)
	if err != nil {
		return nil, err
	}
	for i, l := range inLits {
		if l != uint64(2*(i+1)) {
			return nil, fmt.Errorf("aiger: input %d has literal %d, want %d", i, l, 2*(i+1))
		}
	}
	outLits, err := readLits(out)
	if err != nil {
		return nil, err
	}
	andLits, err := readLits(3 * ands)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ands; i++ {
		lhs, rhs0, rhs1 := andLits[3*i], andLits[3*i+1], andLits[3*i+2]
		wantLHS := uint64(2 * (in + 1 + i))
		if lhs != wantLHS {
			return nil, fmt.Errorf("aiger: AND %d lhs=%d, want %d (non-canonical order unsupported)", i, lhs, wantLHS)
		}
		if rhs0 >= lhs || rhs1 >= lhs {
			return nil, fmt.Errorf("aiger: AND %d references later literal", i)
		}
		a.AddAndUnchecked(aig.Lit(rhs0), aig.Lit(rhs1))
	}
	for _, l := range outLits {
		if l > uint64(2*(in+ands))+1 {
			return nil, fmt.Errorf("aiger: output literal %d out of range", l)
		}
		a.AddPO(aig.Lit(l))
	}
	return a, nil
}

func readBinary(br *bufio.Reader, in, out, ands int) (*aig.AIG, error) {
	a := aig.NewCap(in, in+1+preallocHint(ands))
	outLits := make([]uint64, 0, preallocHint(out))
	for i := 0; i < out; i++ {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("aiger: reading output %d: %w", i, err)
		}
		v, err := strconv.ParseUint(strings.TrimSpace(line), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("aiger: bad output literal %q", strings.TrimSpace(line))
		}
		outLits = append(outLits, v)
	}
	for i := 0; i < ands; i++ {
		lhs := uint64(2 * (in + 1 + i))
		d0, err := readDelta(br)
		if err != nil {
			return nil, fmt.Errorf("aiger: AND %d delta0: %w", i, err)
		}
		d1, err := readDelta(br)
		if err != nil {
			return nil, fmt.Errorf("aiger: AND %d delta1: %w", i, err)
		}
		rhs0 := lhs - d0
		// The format requires lhs > rhs0 >= rhs1, so delta0 must be nonzero
		// (a zero delta would make the node reference itself).
		if d0 == 0 || d0 > lhs || d1 > rhs0 {
			return nil, fmt.Errorf("aiger: AND %d deltas out of range", i)
		}
		rhs1 := rhs0 - d1
		a.AddAndUnchecked(aig.Lit(rhs0), aig.Lit(rhs1))
	}
	for _, l := range outLits {
		if l > uint64(2*(in+ands))+1 {
			return nil, fmt.Errorf("aiger: output literal %d out of range", l)
		}
		a.AddPO(aig.Lit(l))
	}
	return a, nil
}

func readDelta(br *bufio.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
		if shift > 35 {
			return 0, fmt.Errorf("delta encoding too long")
		}
	}
}

// WriteASCII writes the AIG in the ASCII "aag" format. The AIG must be in
// topological id order with no deleted nodes; call Compact first if in-place
// editing was used.
func WriteASCII(w io.Writer, a *aig.AIG) error {
	a, err := canonical(a)
	if err != nil {
		return err
	}
	in, ands := a.NumPIs(), a.NumAnds()
	// At least "2\n" per input and output and "2 0 0\n" per AND.
	bw := bufio.NewWriterSize(w, bufSize(2*in+2*a.NumPOs()+6*ands))
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", in+ands, in, a.NumPOs(), ands)
	for i := 0; i < in; i++ {
		fmt.Fprintf(bw, "%d\n", 2*(i+1))
	}
	for _, p := range a.POs() {
		fmt.Fprintf(bw, "%d\n", uint32(p))
	}
	for i := 0; i < ands; i++ {
		id := int32(in + 1 + i)
		fmt.Fprintf(bw, "%d %d %d\n", 2*int(id), uint32(a.Fanin0(id)), uint32(a.Fanin1(id)))
	}
	return bw.Flush()
}

// WriteBinary writes the AIG in the binary "aig" format.
func WriteBinary(w io.Writer, a *aig.AIG) error {
	a, err := canonical(a)
	if err != nil {
		return err
	}
	in, ands := a.NumPIs(), a.NumAnds()
	// At least "2\n" per output and two delta bytes per AND.
	bw := bufio.NewWriterSize(w, bufSize(2*a.NumPOs()+2*ands))
	fmt.Fprintf(bw, "aig %d %d 0 %d %d\n", in+ands, in, a.NumPOs(), ands)
	for _, p := range a.POs() {
		fmt.Fprintf(bw, "%d\n", uint32(p))
	}
	for i := 0; i < ands; i++ {
		id := int32(in + 1 + i)
		lhs := uint64(2 * int(id))
		f0, f1 := uint64(a.Fanin0(id)), uint64(a.Fanin1(id))
		if f0 < f1 {
			f0, f1 = f1, f0
		}
		if err := writeDelta(bw, lhs-f0); err != nil {
			return err
		}
		if err := writeDelta(bw, f0-f1); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeDelta(bw *bufio.Writer, d uint64) error {
	for d >= 0x80 {
		if err := bw.WriteByte(byte(d&0x7f) | 0x80); err != nil {
			return err
		}
		d >>= 7
	}
	return bw.WriteByte(byte(d))
}

// canonical returns an AIG suitable for writing: topological id order, no
// deleted nodes. When the input already satisfies this, it is returned
// as-is; otherwise a compacted copy is produced. A network the checked
// compaction rejects — dangling PO references, reachable deleted nodes, a
// combinational cycle from in-place edits — yields an error rather than a
// silently corrupt (or, for cycles, never-terminating) write.
func canonical(a *aig.AIG) (*aig.AIG, error) {
	if a.Canonical() {
		// The fast path skips the traversal, so range-check the POs here:
		// a PO pointing past the last node would otherwise be written as an
		// out-of-range literal.
		for i := 0; i < a.NumPOs(); i++ {
			if v := a.PO(i).Var(); int(v) >= a.NumObjs() {
				return nil, fmt.Errorf("aiger: PO %d references out-of-range node %d", i, v)
			}
		}
		return a, nil
	}
	c, _, err := a.CompactSafe()
	if err != nil {
		return nil, fmt.Errorf("aiger: network is not writable: %w", err)
	}
	return c, nil
}
