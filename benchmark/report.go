package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one workload run.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Smoke    bool
	W        int // min(NumCPU, 4): GOMAXPROCS, Workers and the tenant count
}

// sizes are the workload dimensions; -smoke shrinks them so `go test` can
// run every workload in seconds.
type sizes struct {
	suiteScale            int
	suiteNames            []string // nil = all 14 families
	deepChains, deepSteps int
	partTarget            int
	daemonWarm            int
	daemonJobsPerSecond   int // timed jobs = this x -seconds: 3000 at the default 15
	daemonTraced          int
	daemonRefetch         int
}

func (c config) sizes() sizes {
	if c.Smoke {
		return sizes{suiteScale: 1, suiteNames: []string{"sixteen", "div", "mem_ctrl", "sin", "ac97_ctrl", "vga_lcd"},
			deepChains: 8, deepSteps: 500, partTarget: 1 << 12,
			daemonWarm: 10, daemonJobsPerSecond: 60, daemonTraced: 30, daemonRefetch: 10}
	}
	return sizes{suiteScale: 4, deepChains: 64, deepSteps: 4000, partTarget: 1 << 17,
		daemonWarm: 400, daemonJobsPerSecond: 200, daemonTraced: 600, daemonRefetch: 50}
}

// hostStamp goes into every output, so a number can be traced to the
// machine, toolchain and commit that produced it.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	W          int    `json:"w"` // GOMAXPROCS and Workers
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_fs"` // filesystem of the WAL temp dir
	TempFSNote string `json:"temp_fs_note,omitempty"`
}

func stampHost(w int) hostStamp {
	h := hostStamp{NumCPU: runtime.NumCPU(), W: w, GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		h.Dirty = err == nil && len(st) > 0
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	h.TempFS = fsType(os.TempDir())
	if h.TempFS == "tmpfs" {
		h.TempFSNote = "fsync on tmpfs measures nothing: daemon_mixed latencies from this host do not count"
	}
	return h
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMB reads VmHWM of /proc/<pid>/status; pid may be "self".
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// report is everything one workload run measured.
type report struct {
	Host         hostStamp `json:"host"`
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Trace        bool      `json:"trace"`
	Smoke        bool      `json:"smoke,omitempty"`
	Passes       int       `json:"passes"` // timed passes (daemon: timed jobs)
	WarmupPasses int       `json:"warmup_passes"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // the first few, for diagnosis

	EndToEnd map[string]sampleSet `json:"end_to_end"`
	// TailPercentile is the percentile job_p95_ms actually reports: 95 with
	// enough samples, lower with fewer, 50 when no tail has ten samples.
	TailPercentile int `json:"tail_percentile"`
	// DigestUnstable counts inputs whose output bytes differed between the
	// passes of this run (flow.digest_unstable).
	DigestUnstable int `json:"digest_unstable"`

	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// SelfTime is, per span name of the traced run, the summed span time
	// that no child span covers, in seconds.
	SelfTime map[string]float64 `json:"self_time_s,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Spans    []span             `json:"-"`
}

func newReport(cfg config) *report {
	r := &report{Host: stampHost(cfg.W), Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
		Smoke: cfg.Smoke, EndToEnd: make(map[string]sampleSet)}
	if cfg.Trace {
		r.PerLayer = make(map[string]float64, len(perLayer))
	}
	return r
}

func (r *report) fail(err error) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func (r *report) set(name string, samples []float64) {
	def, ok := findMetric(endToEnd, name)
	if !ok {
		panic("unknown end-to-end metric " + name)
	}
	r.EndToEnd[name] = summarize(def.Unit, samples)
}

// setLatency reports job_p50_ms and job_p95_ms from the latencies of distinct
// jobs. A percentile is only as good as the samples beyond it, so job_p95_ms
// is the highest percentile up to 95 with ten samples beyond it, and the
// median when there is none. Latencies of different jobs are not repeated
// measurements of one quantity, so each metric keeps one sample per run
// (what -compare takes spreads over) beside the min, max and count of the
// latencies it summarises.
func (r *report) setLatency(ms []float64) {
	one := func(value float64) sampleSet {
		s := summarize("ms", ms)
		s.Median, s.Samples = value, []float64{value}
		return s
	}
	p, ok := tailPercentile(len(ms), 95)
	if !ok {
		p = 50
	}
	r.TailPercentile = p
	tail := percentile(ms, p)
	if p == 50 {
		tail = median(ms)
	}
	r.EndToEnd["job_p50_ms"] = one(median(ms))
	r.EndToEnd["job_p95_ms"] = one(tail)
}

// finishTrace closes a traced run: it keeps the spans, sums self time per
// span name, and records what tracing cost (traced pass wall / untraced
// reference pass wall) and how much of the traced pass no span covers.
func (r *report) finishTrace(tr *tracer, tracedWall, refWall time.Duration) {
	r.Spans = tr.snapshot()
	r.SelfTime = make(map[string]float64)
	for name, d := range selfByName(r.Spans) {
		r.SelfTime[name] = seconds(d)
	}
	r.PerLayer["trace.overhead_ratio"] = seconds(tracedWall) / seconds(refWall)
	r.PerLayer["trace.unspanned_ratio"] = unspannedRatio(r.Spans, "pass")
}

func (r *report) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes the human-readable rows: every metric by name with its unit.
func (r *report) print(w io.Writer) {
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  %s  seed %d  W %d/%d CPUs  passes %d (+%d warm-up)  %s  commit %.12s%s  kernel %s  temp fs %s\n",
		r.Workload, mode, r.Seed, r.Host.W, r.Host.NumCPU, r.Passes, r.WarmupPasses, r.Host.GoVersion,
		r.Host.Commit, map[bool]string{true: "+dirty"}[r.Host.Dirty], r.Host.Kernel, r.Host.TempFS)
	if !r.Trace {
		for _, d := range endToEnd {
			s := r.EndToEnd[d.Name]
			name := d.Name
			if name == "job_p95_ms" && r.TailPercentile != 95 {
				name = fmt.Sprintf("job_p95_ms (p%d)", r.TailPercentile)
			}
			fmt.Fprintf(w, "  %-20s %14.6g %-8s min %-12.6g max %-12.6g n=%d\n", name, s.Median, d.Unit, s.Min, s.Max, s.N)
		}
		fmt.Fprintf(w, "  %-20s %14.6g %-8s (%d failed of %d)\n", "failed_share", r.failedShare(), "ratio", r.Failed, r.Attempted)
		fmt.Fprintf(w, "  %-20s %14d %-8s\n", "flow.digest_unstable", r.DigestUnstable, "count")
	} else {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "  %-28s %14.6g ratio (%d failed of %d)\n", "failed_share", r.failedShare(), r.Failed, r.Attempted)
		names := make([]string, 0, len(r.SelfTime))
		for name := range r.SelfTime {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfTime[names[i]] > r.SelfTime[names[j]] })
		fmt.Fprintln(w, "  self time by span (span minus what its children cover):")
		for _, name := range names {
			fmt.Fprintf(w, "    %-26s %12.6f s\n", name, r.SelfTime[name])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	if r.Host.TempFSNote != "" {
		fmt.Fprintln(w, "  note:", r.Host.TempFSNote)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  failure:", f)
	}
}

// resultLine is the contract's last line of standard output.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	put := func(d metricDef, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) { // a division by a zero wall: JSON has no such numbers
			v = 0
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	if r.Trace {
		for _, d := range perLayer {
			put(d, r.PerLayer[d.Name])
		}
	} else {
		for _, d := range endToEnd {
			put(d, r.EndToEnd[d.Name].Median)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// writeJSON writes v to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// reportFile is where a workload run leaves its report for the parent.
func reportFile(workload string, trace bool) string {
	if trace {
		return workload + ".traced.json"
	}
	return workload + ".json"
}
