package gpu

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// KernelProfile is the accumulated execution profile of one kernel name: how
// often it launched, how many logical threads and elementary operations it
// accounted, and how much modeled device time (plus measured host wall time)
// it consumed. The rows are the device's only ledger: TotalProfile of
// Device.Profile is the device's whole account, and the rows are its
// per-kernel breakdown, the paper's Fig. 8 data.
type KernelProfile struct {
	Kernel   string        `json:"kernel"`
	Launches int           `json:"launches"`
	Threads  int64         `json:"threads"`
	Work     int64         `json:"work"`
	Span     int64         `json:"span"`
	Modeled  time.Duration `json:"modeled_ns"`
	Seq      time.Duration `json:"seq_ns"` // host-sequential share of Modeled
	Wall     time.Duration `json:"wall_ns"`
}

// add accumulates other into p (Kernel is left unchanged).
func (p *KernelProfile) add(other KernelProfile) {
	p.Launches += other.Launches
	p.Threads += other.Threads
	p.Work += other.Work
	p.Span += other.Span
	p.Modeled += other.Modeled
	p.Seq += other.Seq
	p.Wall += other.Wall
}

// sub subtracts other from p.
func (p *KernelProfile) sub(other KernelProfile) {
	p.Launches -= other.Launches
	p.Threads -= other.Threads
	p.Work -= other.Work
	p.Span -= other.Span
	p.Modeled -= other.Modeled
	p.Seq -= other.Seq
	p.Wall -= other.Wall
}

func (p KernelProfile) isZero() bool {
	return p.Launches == 0 && p.Threads == 0 && p.Work == 0 && p.Span == 0 &&
		p.Modeled == 0 && p.Seq == 0 && p.Wall == 0
}

// account is the single funnel for all device-time accounting: it adds to
// name's row of the per-kernel profile.
func (d *Device) account(name string, launches int, threads, work, span int64, modeled, seq, wall time.Duration) {
	d.beat() // accounted operation completed: the job is alive
	p := d.profile[name]
	if p == nil {
		if d.profile == nil {
			d.profile = make(map[string]*KernelProfile)
		}
		p = &KernelProfile{Kernel: name}
		d.profile[name] = p
	}
	p.add(KernelProfile{Launches: launches, Threads: threads, Work: work, Span: span,
		Modeled: modeled, Seq: seq, Wall: wall})
}

// Profile returns a copy of the accumulated per-kernel profile, sorted by
// modeled time descending (ties broken by kernel name).
func (d *Device) Profile() []KernelProfile {
	rows := make([]KernelProfile, 0, len(d.profile))
	for _, p := range d.profile {
		rows = append(rows, *p)
	}
	sortProfile(rows)
	return rows
}

func sortProfile(rows []KernelProfile) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Modeled != rows[j].Modeled {
			return rows[i].Modeled > rows[j].Modeled
		}
		return rows[i].Kernel < rows[j].Kernel
	})
}

// DiffProfile subtracts the snapshot before from after (both as returned by
// Device.Profile) and returns the rows that changed, sorted like Profile.
// Use it to attribute device time to a phase: snapshot, run, diff.
func DiffProfile(after, before []KernelProfile) []KernelProfile {
	prev := make(map[string]KernelProfile, len(before))
	for _, p := range before {
		prev[p.Kernel] = p
	}
	var rows []KernelProfile
	for _, p := range after {
		p.sub(prev[p.Kernel])
		if !p.isZero() {
			rows = append(rows, p)
		}
	}
	sortProfile(rows)
	return rows
}

// TotalProfile sums rows into a single aggregate (Kernel = "TOTAL").
func TotalProfile(rows []KernelProfile) KernelProfile {
	total := KernelProfile{Kernel: "TOTAL"}
	for _, p := range rows {
		total.add(p)
	}
	return total
}

// FormatProfile renders rows as a text table with a trailing TOTAL line, the
// TotalProfile of rows.
func FormatProfile(rows []KernelProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %9s %12s %14s %10s %14s %14s\n",
		"kernel", "launches", "threads", "work", "span", "modeled", "wall")
	for _, p := range rows {
		fmt.Fprintf(&b, "%-28s %9d %12d %14d %10d %14v %14v\n",
			p.Kernel, p.Launches, p.Threads, p.Work, p.Span, p.Modeled, p.Wall)
	}
	t := TotalProfile(rows)
	fmt.Fprintf(&b, "%-28s %9d %12d %14d %10d %14v %14v\n",
		t.Kernel, t.Launches, t.Threads, t.Work, t.Span, t.Modeled, t.Wall)
	return b.String()
}
