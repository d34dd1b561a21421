package cliflags

import (
	"flag"
	"strings"
	"testing"

	"streamjoin/internal/core"
	"streamjoin/internal/join"
)

func TestDefaultsMatchDefaultConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.PanicOnError)
	get := Bind(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	got := get()
	want := core.DefaultConfig()
	if got.Slaves != want.Slaves || got.Rate != want.Rate ||
		got.WindowMs != want.WindowMs || got.Theta != want.Theta ||
		got.DistEpochMs != want.DistEpochMs || got.ReorgEpochMs != want.ReorgEpochMs ||
		got.ThSup != want.ThSup || got.Partitions != want.Partitions ||
		got.WireBatchBytes != want.WireBatchBytes {
		t.Fatalf("flag defaults drifted:\ngot  %+v\nwant %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFlagOverrides(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.PanicOnError)
	get := Bind(fs)
	args := []string{
		"-slaves", "5", "-rate", "4200", "-window", "90s", "-td", "750ms",
		"-tr", "7500ms", "-finetune=false", "-adaptive", "-theta", "65536",
		"-skew", "0.9", "-seed", "77", "-subgroups", "2",
		"-workers", "3",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := get()
	if cfg.Slaves != 5 || cfg.Rate != 4200 || cfg.WindowMs != 90_000 ||
		cfg.DistEpochMs != 750 || cfg.ReorgEpochMs != 7500 || cfg.FineTune ||
		!cfg.Adaptive || cfg.Theta != 65536 || cfg.Skew != 0.9 ||
		cfg.Seed != 77 || cfg.SubGroups != 2 ||
		cfg.Workers != 3 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestElasticFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.PanicOnError)
	get := Bind(fs)
	args := []string{
		"-slaves", "4", "-min-slaves", "2",
		"-heartbeat", "250ms", "-heartbeat-misses", "5",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := get()
	if cfg.MinSlaves != 2 || cfg.HeartbeatMs != 250 || cfg.HeartbeatMisses != 5 {
		t.Fatalf("elastic flags not applied: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWireHardeningFlags(t *testing.T) {
	parse := func(args ...string) core.Config {
		t.Helper()
		fs := flag.NewFlagSet("t", flag.PanicOnError)
		get := Bind(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return get()
	}
	for _, tc := range []struct {
		name  string
		args  []string
		wire  int32
		form  int32
		spool int64
	}{
		// Defaults: 30s deadline, 2m formation, 1MB spool.
		{name: "defaults", wire: 30_000, form: 120_000, spool: 1 << 20},
		{name: "tuned", args: []string{"-wire-deadline", "5s", "-form-timeout", "45s", "-sink-spool", "4194304"},
			wire: 5_000, form: 45_000, spool: 4 << 20},
		// Zero on the flag surface means "off", which the Config encodes as
		// the negative sentinel (0 there means "use the default").
		{name: "disabled", args: []string{"-wire-deadline", "0"},
			wire: -1, form: 120_000, spool: 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := parse(tc.args...)
			if cfg.WireDeadlineMs != tc.wire || cfg.FormTimeoutMs != tc.form || cfg.SinkSpoolBytes != tc.spool {
				t.Fatalf("wire=%d form=%d spool=%d, want %d/%d/%d",
					cfg.WireDeadlineMs, cfg.FormTimeoutMs, cfg.SinkSpoolBytes,
					tc.wire, tc.form, tc.spool)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The spool cannot be switched off: a sink always redials.
	for _, v := range []string{"0", "-1", "lots"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(discard{})
		Bind(fs)
		if err := fs.Parse([]string{"-sink-spool", v}); err == nil {
			t.Errorf("-sink-spool %s accepted", v)
		}
	}
}

// parseArgs binds a fresh flag set and parses args into a Config.
func parseArgs(args ...string) (core.Config, error) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(discard{})
	get := Bind(fs)
	if err := fs.Parse(args); err != nil {
		return core.Config{}, err
	}
	return get(), nil
}

// TestSinkFlag covers the SINK field of -query ID:PROBER:SINK.
func TestSinkFlag(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		countOnly bool
		sinkAddr  string
		wantErr   string // substring of the parse error ("" = success)
	}{
		{name: "default materializes", args: nil},
		{name: "count", args: []string{"-query", "0:hash:count"}, countOnly: true},
		{name: "discard", args: []string{"-query", "0:hash:discard"}},
		{name: "tcp", args: []string{"-query", "0:hash:tcp:localhost:7402"}, sinkAddr: "localhost:7402"},
		{name: "tcp ip", args: []string{"-query", "0:hash:tcp:10.0.0.3:9999"}, sinkAddr: "10.0.0.3:9999"},
		{name: "tcp missing port", args: []string{"-query", "0:hash:tcp:localhost"}, wantErr: "tcp:HOST:PORT"},
		{name: "tcp empty", args: []string{"-query", "0:hash:tcp:"}, wantErr: "tcp:HOST:PORT"},
		// Unknown modes fail listing the valid ones — no silent fallback.
		{name: "unknown", args: []string{"-query", "0:hash:kafka"}, wantErr: `valid modes: "discard", "count", or "tcp:HOST:PORT"`},
		{name: "empty", args: []string{"-query", "0:hash:"}, wantErr: "valid modes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseArgs(tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var q core.QuerySpec // no -query: one query, 0:hash:discard
			if len(cfg.Queries) > 0 {
				q = cfg.Queries[0]
			}
			if q.CountOnly != tc.countOnly || q.SinkAddr != tc.sinkAddr {
				t.Fatalf("countOnly=%v sinkAddr=%q, want %v/%q",
					q.CountOnly, q.SinkAddr, tc.countOnly, tc.sinkAddr)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQueryFlag(t *testing.T) {
	cfg, err := parseArgs(
		"-query", "0:hash:count",
		"-query", "1:scan:tcp:127.0.0.1:7402",
		"-query", "2:hash:discard",
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.QuerySpec{
		{ID: 0, Prober: join.ModeHash, CountOnly: true},
		{ID: 1, Prober: join.ModeScan, SinkAddr: "127.0.0.1:7402"},
		{ID: 2, Prober: join.ModeHash},
	}
	if len(cfg.Queries) != len(want) {
		t.Fatalf("got %d queries, want %d", len(cfg.Queries), len(want))
	}
	for i, w := range want {
		if cfg.Queries[i] != w {
			t.Fatalf("Queries[%d] = %+v, want %+v", i, cfg.Queries[i], w)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	if cfg, err := parseArgs(); err != nil || len(cfg.Queries) != 0 {
		t.Fatalf("default queries = %v (err %v), want none", cfg.Queries, err)
	}

	for _, bad := range []string{
		"0:hash",                // missing sink
		"x:hash:count",          // bad id
		"-1:hash:count",         // negative id
		"1x:hash:count",         // trailing input after the id
		"0x10:hash:count",       // not decimal
		"0:quantum:count",       // bad prober
		"0:hash:kafka",          // bad sink mode
		"0:hash:tcp:nohostport", // bad sink addr
	} {
		if _, err := parseArgs("-query", bad); err == nil {
			t.Errorf("-query %q parsed, want error", bad)
		}
	}

	// -query is the one way to declare a query: -sink and -prober are gone.
	for _, args := range [][]string{{"-sink", "count"}, {"-prober", "scan"}} {
		if _, err := parseArgs(args...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%q: error %v, want an undefined-flag error", args, err)
		}
	}
}

// discard silences flag-package usage output during error-path tests.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestProberFlag covers the PROBER field of -query ID:PROBER:SINK.
func TestProberFlag(t *testing.T) {
	if cfg, err := parseArgs(); err != nil || len(cfg.Queries) != 0 || cfg.LiveProber != join.ModeHash {
		t.Fatalf("default: queries %v, prober %v (err %v), want none and hash", cfg.Queries, cfg.LiveProber, err)
	}
	for v, want := range map[string]join.Mode{"scan": join.ModeScan, "hash": join.ModeHash} {
		if cfg, err := parseArgs("-query", "0:"+v+":discard"); err != nil || cfg.Queries[0].Prober != want {
			t.Fatalf("-query 0:%s:discard = %+v (err %v)", v, cfg.Queries, err)
		}
	}
	if _, err := parseArgs("-query", "0:quantum:discard"); err == nil {
		t.Fatal("unknown prober should fail to parse")
	}
}
