package des

import (
	"testing"
	"time"
)

func TestClockAdvancesWithSleep(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Second) {
		t.Fatalf("woke at %v, want 5s", woke)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	env := NewEnv()
	var times []Time
	env.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		times = append(times, p.Now())
		p.Sleep(-time.Second)
		times = append(times, p.Now())
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tm := range times {
		if tm != 0 {
			t.Fatalf("time moved on zero/negative sleep: %v", tm)
		}
	}
}

func TestDeterministicOrderingAtSameTime(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"a", "b", "c", "d"} {
			name := name
			env.Spawn(name, func(p *Proc) {
				p.Sleep(time.Second)
				order = append(order, name)
			})
		}
		if _, err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		got := run()
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("run %d ordering %v != %v", i, got, first)
			}
		}
	}
	// Spawn order is the tiebreak at equal times.
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	now, err := env.RunUntil(Time(10*time.Second + 500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if now != Time(10*time.Second+500*time.Millisecond) {
		t.Fatalf("now = %v", now)
	}
	env.Kill()
}

func TestQueuePutGet(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var got []int
	var when []Time
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
			when = append(when, p.Now())
		}
	})
	env.Spawn("producer", func(p *Proc) {
		p.Sleep(time.Second)
		q.Put(1)
		q.Put(2)
		p.Sleep(time.Second)
		q.Put(3)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v", got)
	}
	if when[0] != Time(time.Second) || when[2] != Time(2*time.Second) {
		t.Fatalf("when = %v", when)
	}
}

func TestQueueFIFOAcrossWaiters(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var order []string
	spawnConsumer := func(name string, delay time.Duration) {
		env.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			q.Get(p)
			order = append(order, name)
		})
	}
	spawnConsumer("first", 0)
	spawnConsumer("second", time.Millisecond)
	env.Spawn("producer", func(p *Proc) {
		p.Sleep(time.Second)
		q.Put(1)
		q.Put(2)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
}

func TestQueueGetBeforeDeadline(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	var gotOK, timedOut bool
	var at Time
	env.Spawn("consumer", func(p *Proc) {
		_, ok := q.GetBefore(p, Time(time.Second))
		timedOut = !ok
		at = p.Now()
		v, ok := q.GetBefore(p, Time(10*time.Second))
		gotOK = ok && v == 7
	})
	env.Spawn("producer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		q.Put(7)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || at != Time(time.Second) {
		t.Fatalf("timeout path: timedOut=%v at=%v", timedOut, at)
	}
	if !gotOK {
		t.Fatal("second GetBefore should have received 7")
	}
}

func TestQueueGetBeforeRaceAtDeadline(t *testing.T) {
	// A Put landing exactly at the deadline must deliver exactly once and
	// must not leave a stale waiter registration behind.
	env := NewEnv()
	q := NewQueue[int](env)
	var got []int
	env.Spawn("consumer", func(p *Proc) {
		if v, ok := q.GetBefore(p, Time(time.Second)); ok {
			got = append(got, v)
		}
		if v, ok := q.GetBefore(p, Time(2*time.Second)); ok {
			got = append(got, v)
		}
	})
	env.Spawn("producer", func(p *Proc) {
		p.Sleep(time.Second)
		q.Put(1)
		p.Sleep(time.Second)
		q.Put(2)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range got {
		total += v
	}
	for {
		v, ok := q.TryGet()
		if !ok {
			break
		}
		total += v
	}
	if total != 3 {
		t.Fatalf("items lost or duplicated: got=%v total=%d", got, total)
	}
}

func TestEnvAtCallback(t *testing.T) {
	env := NewEnv()
	q := NewQueue[string](env)
	env.At(Time(3*time.Second), func() { q.Put("late") })
	var got string
	var at Time
	env.Spawn("c", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "late" || at != Time(3*time.Second) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestKillUnwindsBlockedProcesses(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	env.Spawn("stuck", func(p *Proc) { q.Get(p) })
	env.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	if _, err := env.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if env.Live() != 2 {
		t.Fatalf("live = %d, want 2", env.Live())
	}
	env.Kill()
	if env.Live() != 0 {
		t.Fatalf("after Kill live = %d, want 0", env.Live())
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	env := NewEnv()
	env.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Second)
		panic("exploded")
	})
	if _, err := env.Run(); err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	env := NewEnv()
	var childRanAt Time
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRanAt = c.Now()
		})
		p.Sleep(5 * time.Second)
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childRanAt != Time(2*time.Second) {
		t.Fatalf("child ran at %v, want 2s", childRanAt)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(time.Second)
	if tm.Add(time.Second) != Time(2*time.Second) {
		t.Fatal("Add")
	}
	if MaxTime.Add(time.Second) != MaxTime {
		t.Fatal("Add should saturate")
	}
	if tm.Duration() != time.Second {
		t.Fatal("Duration")
	}
	if tm.String() != "1s" {
		t.Fatalf("String = %q", tm.String())
	}
}

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env)
	const n = 200
	sum := 0
	env.Spawn("sink", func(p *Proc) {
		for i := 0; i < n; i++ {
			sum += q.Get(p)
		}
	})
	for i := 0; i < n; i++ {
		i := i
		env.Spawn("src", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			q.Put(i)
		})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != n*(n-1)/2 {
		t.Fatalf("sum = %d", sum)
	}
}
