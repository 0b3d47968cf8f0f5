package runtime

// Runtime bundles the pooled execution substrate handed to the engine
// entry points (allsat.Options.Runtime, pool.Options.Runtime,
// preimage.Options.Runtime). A nil *Runtime — and a Runtime with nil
// fields — means fresh construction (nil Pool) and a private scheduler
// per parallel call (nil Sched, see Group). Tenant labels the scheduler
// queue the request's jobs join; empty means the shared anonymous
// queue.
type Runtime struct {
	Pool   *Pool
	Sched  *Scheduler
	Tenant string
}

// WithTenant returns a shallow copy bound to the given tenant label.
func (r *Runtime) WithTenant(t string) *Runtime {
	if r == nil {
		return nil
	}
	c := *r
	c.Tenant = t
	return &c
}

// P returns the pool, nil-safely.
func (r *Runtime) P() *Pool {
	if r == nil {
		return nil
	}
	return r.Pool
}

// S returns the scheduler, nil-safely.
func (r *Runtime) S() *Scheduler {
	if r == nil {
		return nil
	}
	return r.Sched
}
