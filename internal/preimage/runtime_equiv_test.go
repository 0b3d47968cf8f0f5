package preimage

import (
	goruntime "runtime"
	"testing"
	"time"

	"allsatpre/internal/gen"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// TestRuntimeSchedulerNoGoroutineLeak checks scheduler-mode runs leave
// no stragglers: after Close the goroutine count returns to (about) the
// pre-test level even though the runs fanned dozens of jobs out.
func TestRuntimeSchedulerNoGoroutineLeak(t *testing.T) {
	before := goruntime.NumGoroutine()
	reg := stats.NewRegistry("leak")
	sched := rt.NewScheduler(4, reg)
	shared := &rt.Runtime{Pool: rt.NewPool(rt.PoolOptions{}), Sched: sched}

	c := gen.Counter(6, true, false)
	target := trans.TargetFromPatterns(len(c.Latches), "1X0X1X")
	for i := 0; i < 4; i++ {
		if _, err := Compute(c, target, Options{
			Engine: EngineSuccessDriven, Parallel: 4, Runtime: shared,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sched.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after close", before, goruntime.NumGoroutine())
}
