package aiger

import (
	"bytes"
	"io"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/alloctest"
	"aigre/internal/bench"
)

// payloads are the two stream sizes the repository benchmark moves: a daemon
// job (sqrt at scale 1, 17 KB) and the deep_part input (2.5 MB).
func payloads() []payload {
	return []payload{
		{"17KB", bench.Sqrt(48)},
		{"2.5MB", bench.DeepNarrow(64, 4000)},
	}
}

type payload struct {
	name string
	net  *aig.AIG
}

func encode(tb testing.TB, a *aig.AIG) []byte {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamAllocBudget: reading a small payload allocates the network, a
// buffer no larger than the payload and the output lines; writing it
// allocates a buffer no larger than the payload and the header's formatting.
// Neither pays for a buffer sized to the largest stream there could be.
func TestStreamAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	a := bench.Sqrt(48)
	data := encode(t, a)
	network := 8*a.NumObjs() + 4*a.NumPOs()
	lines := 32 * a.NumPOs() // one short string and one uint64 per output line
	read := alloctest.Bytes(func() {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(network + len(data) + lines + 4096); read > budget {
		t.Errorf("Read of %d bytes allocated %d B, budget %d B", len(data), read, budget)
	}
	write := alloctest.Bytes(func() {
		if err := WriteBinary(io.Discard, a); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(len(data) + lines + 4096); write > budget {
		t.Errorf("WriteBinary of %d bytes allocated %d B, budget %d B", len(data), write, budget)
	}
}

func BenchmarkReadBinary(b *testing.B) {
	for _, p := range payloads() {
		b.Run(p.name, func(b *testing.B) {
			data := encode(b, p.net)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			start := alloctest.Total()
			for i := 0; i < b.N; i++ {
				if _, err := Read(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
			alloctest.ReportPerNode(b, start, p.net.NumObjs())
		})
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	for _, p := range payloads() {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(encode(b, p.net))))
			b.ReportAllocs()
			b.ResetTimer()
			start := alloctest.Total()
			for i := 0; i < b.N; i++ {
				if err := WriteBinary(io.Discard, p.net); err != nil {
					b.Fatal(err)
				}
			}
			alloctest.ReportPerNode(b, start, p.net.NumObjs())
		})
	}
}
