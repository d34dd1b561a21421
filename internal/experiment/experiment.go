// Package experiment regenerates every table and figure of the paper's
// evaluation (§VI) on the simulated cluster: the same sweeps, the same
// series, printed as plain-text data tables.
//
// Runs are deterministic and cached by configuration, so figures that share
// sweep points (e.g. Figures 7–10 all reuse the 4-slave rate sweeps) run
// each configuration once.
package experiment

import (
	"fmt"
	"io"
	"strings"

	"streamjoin/internal/core"
)

// Scale selects experiment fidelity.
type Scale int

const (
	// Full reproduces the paper's setup exactly: 10-minute windows,
	// 20-minute runs with 10-minute warm-up.
	Full Scale = iota
	// Quick shrinks windows and runs (2-minute window, 5-minute run) for
	// fast regeneration; shapes are preserved, knees shift slightly.
	Quick
	// Tiny is a smoke scale for benchmarks: 30-second windows, 90-second
	// runs, and sweeps trimmed to their endpoints and midpoint. It
	// exercises every code path of each figure without paper-comparable
	// values.
	Tiny
)

func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Tiny:
		return "tiny"
	}
	return "full"
}

// Options configures figure generation.
type Options struct {
	Scale Scale
	Seed  uint64
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// cache of completed runs, keyed by config fingerprint.
	cache map[string]*core.Result
}

// base returns the experiment's base configuration at the chosen scale.
func (o *Options) base() core.Config {
	cfg := core.DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	switch o.Scale {
	case Quick:
		cfg.WindowMs = 2 * 60 * 1000
		cfg.DurationMs = 5 * 60 * 1000
		cfg.WarmupMs = 150 * 1000
	case Tiny:
		cfg.WindowMs = 30 * 1000
		cfg.DurationMs = 90 * 1000
		cfg.WarmupMs = 45 * 1000
	}
	return cfg
}

// sweep trims a sweep to endpoints and midpoint at Tiny scale.
func (o *Options) sweep(points []float64) []float64 {
	if o.Scale != Tiny || len(points) <= 3 {
		return points
	}
	return []float64{points[0], points[len(points)/2], points[len(points)-1]}
}

func (o *Options) sweepMs(points []int32) []int32 {
	if o.Scale != Tiny || len(points) <= 3 {
		return points
	}
	return []int32{points[0], points[len(points)/2], points[len(points)-1]}
}

func (o *Options) run(cfg core.Config) (*core.Result, error) {
	key := fmt.Sprintf("%+v", cfg)
	if o.cache == nil {
		o.cache = make(map[string]*core.Result)
	}
	if res, ok := o.cache[key]; ok {
		return res, nil
	}
	res, err := core.RunSim(cfg)
	if err != nil {
		return nil, err
	}
	o.cache[key] = res
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, "  ran slaves=%d rate=%.0f td=%dms fine=%v adaptive=%v: delay=%v\n",
			cfg.Slaves, cfg.Rate, cfg.DistEpochMs, cfg.FineTune, cfg.Adaptive, res.MeanDelay())
	}
	return res, nil
}

// Point is one x position of a figure with its series values.
type Point struct {
	X      float64
	Values map[string]float64
}

// Figure is a regenerated plot: named series sampled over a sweep.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []string
	Points []Point
}

// Table renders the figure as an aligned plain-text data table.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# x: %s; y: %s\n", f.XLabel, f.YLabel)
	w := 14
	fmt.Fprintf(&b, "%-*s", w, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", w, s)
	}
	b.WriteByte('\n')
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-*.4g", w, p.X)
		for _, s := range f.Series {
			v, ok := p.Values[s]
			if !ok {
				fmt.Fprintf(&b, "%*s", w, "-")
				continue
			}
			fmt.Fprintf(&b, "%*.4g", w, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Value returns a series value at x (tests).
func (f *Figure) Value(x float64, series string) (float64, bool) {
	for _, p := range f.Points {
		if p.X == x {
			v, ok := p.Values[series]
			return v, ok
		}
	}
	return 0, false
}

// Generator produces one figure.
type Generator struct {
	ID    string
	Title string
	Gen   func(*Options) (*Figure, error)
}

// All lists every figure generator in paper order.
func All() []Generator {
	return []Generator{
		{"fig5", "Average delay vs stream arrival rate (1-2 slaves)", Figure5},
		{"fig6", "Average delay vs stream arrival rate (3-5 slaves)", Figure6},
		{"fig7", "Average processing (CPU) time vs arrival rate, 4 slaves", Figure7},
		{"fig8", "Average delay vs arrival rate without fine-tuning, 4 slaves", Figure8},
		{"fig9", "Idle time and communication overhead vs rate (no fine-tuning), 4 slaves", Figure9},
		{"fig10", "Idle time and communication overhead vs rate (fine-tuning), 4 slaves", Figure10},
		{"fig11", "Communication overhead vs number of nodes", Figure11},
		{"fig12", "Communication overhead vs arrival rate (min/avg/max over slaves), 4 slaves", Figure12},
		{"fig13", "Average production delay vs distribution epoch, 3 slaves", Figure13},
		{"fig14", "Communication overhead vs distribution epoch, 3 slaves", Figure14},
	}
}

// ByID returns the generator with the given ID, searching the simulated
// figures and the live-engine ones.
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	for _, g := range LiveAll() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// delayFigure sweeps arrival rate for several slave counts and reports the
// average production delay in seconds.
func delayFigure(o *Options, id, title string, slaveCounts []int, rates []float64, fineTune bool) (*Figure, error) {
	f := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "rate(t/s)",
		YLabel: "average delay (sec)",
	}
	for _, n := range slaveCounts {
		f.Series = append(f.Series, fmt.Sprintf("nodes=%d", n))
	}
	for _, r := range rates {
		p := Point{X: r, Values: map[string]float64{}}
		for _, n := range slaveCounts {
			cfg := o.base()
			cfg.Slaves = n
			cfg.Rate = r
			cfg.FineTune = fineTune
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			p.Values[fmt.Sprintf("nodes=%d", n)] = res.MeanDelay().Seconds()
		}
		f.Points = append(f.Points, p)
	}
	return f, nil
}

// Figure5 reproduces Fig. 5: average delay vs rate for 1 and 2 slaves.
func Figure5(o *Options) (*Figure, error) {
	return delayFigure(o, "fig5", "Average delay with varying stream arrival rates",
		[]int{1, 2}, o.sweep(seq(1000, 3500, 500)), true)
}

// Figure6 reproduces Fig. 6: average delay vs rate for 3, 4 and 5 slaves.
func Figure6(o *Options) (*Figure, error) {
	return delayFigure(o, "fig6", "Average delay with varying stream arrival rates",
		[]int{3, 4, 5}, o.sweep(seq(1000, 8000, 1000)), true)
}

// Figure7 reproduces Fig. 7: per-slave CPU time with and without fine
// tuning, 4 slaves.
func Figure7(o *Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig7",
		Title:  "Average processing time (CPU) with varying arrival rates (4 slaves)",
		XLabel: "rate(t/s)",
		YLabel: "CPU time over the measurement interval (sec)",
		Series: []string{"no fine-tuning", "fine-tuning"},
	}
	for _, r := range o.sweep(seq(1500, 6000, 500)) {
		p := Point{X: r, Values: map[string]float64{}}
		for _, ft := range []bool{false, true} {
			if !ft && r > 4000 {
				continue // paper stops the untuned series at its collapse
			}
			cfg := o.base()
			cfg.Slaves = 4
			cfg.Rate = r
			cfg.FineTune = ft
			res, err := o.run(cfg)
			if err != nil {
				return nil, err
			}
			name := "fine-tuning"
			if !ft {
				name = "no fine-tuning"
			}
			p.Values[name] = res.AvgSlaveCPU().Seconds()
		}
		f.Points = append(f.Points, p)
	}
	return f, nil
}

// Figure8 reproduces Fig. 8: average delay without fine tuning, 4 slaves.
func Figure8(o *Options) (*Figure, error) {
	fig, err := delayFigure(o, "fig8", "Average delay without fine-tuning (4 slaves)",
		[]int{4}, o.sweep(seq(1500, 4000, 500)), false)
	if err != nil {
		return nil, err
	}
	fig.Series = []string{"no fine-tuning"}
	for i := range fig.Points {
		fig.Points[i].Values["no fine-tuning"] = fig.Points[i].Values["nodes=4"]
	}
	return fig, nil
}

// idleCommFigure builds Figures 9 and 10.
func idleCommFigure(o *Options, id string, fineTune bool, rates []float64) (*Figure, error) {
	title := "with"
	if !fineTune {
		title = "without"
	}
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Idle time and communication overhead %s fine-grained partition tuning (4 slaves)", title),
		XLabel: "rate(t/s)",
		YLabel: "time over the measurement interval (sec)",
		Series: []string{"idle", "comm"},
	}
	for _, r := range rates {
		cfg := o.base()
		cfg.Slaves = 4
		cfg.Rate = r
		cfg.FineTune = fineTune
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: r, Values: map[string]float64{
			"idle": res.AvgSlaveIdle().Seconds(),
			"comm": res.CommSummary().Mean(),
		}})
	}
	return f, nil
}

// Figure9 reproduces Fig. 9 (no fine tuning).
func Figure9(o *Options) (*Figure, error) {
	return idleCommFigure(o, "fig9", false, o.sweep(seq(1500, 4000, 500)))
}

// Figure10 reproduces Fig. 10 (fine tuning).
func Figure10(o *Options) (*Figure, error) {
	return idleCommFigure(o, "fig10", true, o.sweep(seq(1500, 6000, 500)))
}

// Figure11 reproduces Fig. 11: aggregate and per-node communication overhead
// vs the number of slaves, plus the aggregate under adaptive declustering.
func Figure11(o *Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig11",
		Title:  "Communication overhead with varying nodes (rate 1500 t/s)",
		XLabel: "nodes",
		YLabel: "communication time (sec)",
		Series: []string{"aggregate", "per node", "adaptive aggregate"},
	}
	for n := 1; n <= 5; n++ {
		p := Point{X: float64(n), Values: map[string]float64{}}
		cfg := o.base()
		cfg.Slaves = n
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		agg := res.AggregateComm().Seconds()
		p.Values["aggregate"] = agg
		p.Values["per node"] = agg / float64(n)

		acfg := o.base()
		acfg.Slaves = n
		acfg.Adaptive = true
		ares, err := o.run(acfg)
		if err != nil {
			return nil, err
		}
		p.Values["adaptive aggregate"] = ares.AggregateComm().Seconds()
		f.Points = append(f.Points, p)
	}
	return f, nil
}

// Figure12 reproduces Fig. 12: min/avg/max per-slave communication overhead
// vs rate, 4 slaves.
func Figure12(o *Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig12",
		Title:  "Communication overhead with varying stream arrival rates (4 slaves)",
		XLabel: "rate(t/s)",
		YLabel: "communication time (sec)",
		Series: []string{"min", "avg", "max"},
	}
	for _, r := range o.sweep(seq(1500, 6000, 500)) {
		cfg := o.base()
		cfg.Slaves = 4
		cfg.Rate = r
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		s := res.CommSummary()
		f.Points = append(f.Points, Point{X: r, Values: map[string]float64{
			"min": s.Min, "avg": s.Mean(), "max": s.Max,
		}})
	}
	return f, nil
}

// epochSweep runs the td sweep shared by Figures 13 and 14 (3 slaves).
func epochSweep(o *Options, tdMs int32) (*core.Result, error) {
	cfg := o.base()
	cfg.Slaves = 3
	cfg.DistEpochMs = tdMs
	cfg.ReorgEpochMs = tdMs * 10
	return o.run(cfg)
}

var epochPointsMs = []int32{500, 1000, 2000, 3000, 4000, 5000, 6000}

// Figure13 reproduces Fig. 13: average delay vs distribution epoch.
func Figure13(o *Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig13",
		Title:  "Average production delay with varying distribution epochs (3 slaves)",
		XLabel: "t_d (sec)",
		YLabel: "average delay (sec)",
		Series: []string{"delay"},
	}
	for _, td := range o.sweepMs(epochPointsMs) {
		res, err := epochSweep(o, td)
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: float64(td) / 1000, Values: map[string]float64{
			"delay": res.MeanDelay().Seconds(),
		}})
	}
	return f, nil
}

// Figure14 reproduces Fig. 14: communication overhead vs distribution epoch.
func Figure14(o *Options) (*Figure, error) {
	f := &Figure{
		ID:     "fig14",
		Title:  "Communication overhead with varying distribution epochs (3 slaves)",
		XLabel: "t_d (sec)",
		YLabel: "communication time (sec)",
		Series: []string{"comm"},
	}
	for _, td := range o.sweepMs(epochPointsMs) {
		res, err := epochSweep(o, td)
		if err != nil {
			return nil, err
		}
		f.Points = append(f.Points, Point{X: float64(td) / 1000, Values: map[string]float64{
			"comm": res.CommSummary().Mean(),
		}})
	}
	return f, nil
}

// TableI renders the default-parameter table (Table I of the paper).
func TableI() string {
	cfg := core.DefaultConfig()
	rows := [][2]string{
		{"W_i (i=1,2)", fmt.Sprintf("%d min", cfg.WindowMs/60000)},
		{"lambda", fmt.Sprintf("%.0f tuples/sec", cfg.Rate)},
		{"b", fmt.Sprintf("%.1f", cfg.Skew)},
		{"Th_con", fmt.Sprintf("%.2f", cfg.ThCon)},
		{"Th_sup", fmt.Sprintf("%.1f", cfg.ThSup)},
		{"theta", fmt.Sprintf("%.1f MB", float64(cfg.Theta)/1e6)},
		{"block size", "4 KB"},
		{"t_d", fmt.Sprintf("%d sec", cfg.DistEpochMs/1000)},
		{"t_r", fmt.Sprintf("%d sec", cfg.ReorgEpochMs/1000)},
		{"partitions", fmt.Sprintf("%d", cfg.Partitions)},
		{"domain of A", fmt.Sprintf("[0, %d)", cfg.Domain)},
		{"tuple size", "64 bytes"},
		{"slave buffer", fmt.Sprintf("%d MB", cfg.SlaveBufBytes>>20)},
	}
	var b strings.Builder
	b.WriteString("# Table I — default values used in experiments\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %s\n", r[0], r[1])
	}
	return b.String()
}

// seq returns from..to inclusive with the given step.
func seq(from, to, step float64) []float64 {
	var out []float64
	for v := from; v <= to+1e-9; v += step {
		out = append(out, v)
	}
	return out
}
