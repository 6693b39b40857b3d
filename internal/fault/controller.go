package fault

import (
	"fmt"

	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sim"
	"gcsteering/internal/ssd"
)

// Stats aggregates what the controller observed over one run.
type Stats struct {
	// Failures counts whole-device failures the layout absorbed;
	// ArrayFailures those beyond its fault tolerance (the RAID5 second
	// failure: the array is lost, which the run records instead of
	// silently reconstructing garbage).
	Failures      int64
	ArrayFailures int64
	// Rebuilds counts completed automatic reconstructions.
	Rebuilds int64
	// RebuildUREs / RebuildUREsRepaired / DataLossUnits fold in the
	// rebuilders' latent-error accounting (see rebuild.Stats).
	RebuildUREs         int64
	RebuildUREsRepaired int64
	DataLossUnits       int64
	// WindowOfVulnerability is the total simulated time the array spent
	// degraded — from each absorbed failure until the rebuild that
	// restored full redundancy (or the end of the run). It is the paper's
	// §III-D reliability metric: while the window is open, one more loss
	// is data loss.
	WindowOfVulnerability sim.Time
	// RebuildTime is the total wall-clock time rebuilds were running.
	RebuildTime sim.Time
}

// Controller executes a Plan against one assembled array: it installs the
// per-device injectors, schedules the failures, and drives automatic
// repair-and-rebuild through internal/rebuild.
type Controller struct {
	eng      *sim.Engine
	arr      *raid.Array
	plan     Plan
	injs     []*Injector
	pageSize int

	// SinkFor supplies, per failure, the rebuild sink and the replacement
	// disk RepairDisk installs once that rebuild completes (nil keeps the
	// failed slot's Disk object). Required when the plan enables automatic
	// rebuild; the facade wires staging-aware sinks here.
	SinkFor func(now sim.Time, failDisk int) (rebuild.Sink, raid.Disk, error)
	// OnFail / OnRebuildStart / OnRepair, when non-nil, observe the fault
	// lifecycle (the facade uses them to keep the steering controller's
	// failed-home and rebuilding state in sync).
	OnFail         func(now sim.Time, disk int)
	OnRebuildStart func(now sim.Time, disk int)
	OnRepair       func(now sim.Time, disk int)
	// Hold, when non-nil, is asked before a due rebuild launches; while it
	// reports true the launch is retried every millisecond (the facade
	// reclaims staged write data before rebuilding into the staging space).
	Hold func(now sim.Time, disk int) bool

	// Trace, when non-nil, receives disk-fail and disk-repair events. The
	// rebuilders the controller launches inherit it.
	Trace *obs.Tracer

	stats         Stats
	degradedSince sim.Time // -1 when fully redundant
	rebuilding    bool
	finished      bool
	err           error // first asynchronous error (surfaced by Err)
}

// NewController validates the plan and prepares a controller. devs are the
// array members in disk order; their fault hooks are installed immediately
// so warm traffic before Start is already subject to slowdowns and UREs.
func NewController(eng *sim.Engine, arr *raid.Array, devs []*ssd.Device, plan Plan, pageSize int) (*Controller, error) {
	channels := 0
	if len(devs) > 0 {
		channels = devs[0].Config().Geometry.Channels
	}
	if err := plan.Validate(arr.Layout().Disks, channels); err != nil {
		return nil, err
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("fault: page size %d", pageSize)
	}
	c := &Controller{
		eng:           eng,
		arr:           arr,
		plan:          plan,
		injs:          Install(devs, plan),
		pageSize:      pageSize,
		degradedSince: -1,
	}
	return c, nil
}

// Stats returns a snapshot of the controller's accounting.
func (c *Controller) Stats() Stats { return c.stats }

// Injectors exposes the per-device injectors the controller installed —
// the power-loss replay adds torn-page defects to them after a remount.
func (c *Controller) Injectors() []*Injector { return c.injs }

// Err returns the first error a scheduled fault event hit (a sink factory
// failure, say); nil on a clean run.
func (c *Controller) Err() error { return c.err }

// Start schedules the plan's failures on the engine. Call once, before
// running the engine.
func (c *Controller) Start() {
	for _, f := range c.plan.Failures {
		f := f
		c.eng.At(f.At, func(now sim.Time) { c.fail(now, f.Disk) })
	}
}

// fail injects one whole-device failure.
func (c *Controller) fail(now sim.Time, disk int) {
	if !c.arr.Alive(disk) {
		return // already failed (duplicate schedule)
	}
	if err := c.arr.FailDisk(disk); err != nil {
		// Beyond the layout's tolerance: the array is lost. Record it and
		// keep simulating — the run's results carry the verdict.
		c.stats.ArrayFailures++
		if c.Trace.Enabled() {
			c.Trace.Emit(now, obs.Event{Kind: obs.KDiskFail, Dev: int32(disk), Page: -1, Aux: 1})
		}
		return
	}
	c.stats.Failures++
	if c.Trace.Enabled() {
		c.Trace.Emit(now, obs.Event{Kind: obs.KDiskFail, Dev: int32(disk), Page: -1})
	}
	if disk < len(c.injs) {
		c.injs[disk].markFailed()
	}
	if c.degradedSince < 0 {
		c.degradedSince = now
	}
	if c.OnFail != nil {
		c.OnFail(now, disk)
	}
	c.maybeStartRebuild(now)
}

// maybeStartRebuild launches the next reconstruction after the hot-spare
// activation delay, one rebuild at a time (a second failure mid-rebuild
// queues behind the first, as md does).
func (c *Controller) maybeStartRebuild(now sim.Time) {
	if c.plan.RebuildMBps <= 0 || c.rebuilding || !c.arr.Degraded() {
		return
	}
	c.rebuilding = true
	c.eng.At(now+c.plan.RepairDelay, c.startRebuild)
}

func (c *Controller) startRebuild(now sim.Time) {
	disk := c.arr.Failed()
	if disk < 0 { // repaired by other means in the interim
		c.rebuilding = false
		return
	}
	if c.Hold != nil && c.Hold(now, disk) {
		c.eng.After(sim.Millisecond, c.startRebuild)
		return
	}
	if c.SinkFor == nil {
		c.fault("fault: plan enables rebuild but no SinkFor is wired")
		return
	}
	sink, replacement, err := c.SinkFor(now, disk)
	if err != nil {
		c.fault(fmt.Sprintf("fault: sink for disk %d: %v", disk, err))
		return
	}
	rb, err := rebuild.New(c.eng, c.arr, sink, c.plan.RebuildMBps, c.pageSize)
	if err != nil {
		c.fault(fmt.Sprintf("fault: rebuild of disk %d: %v", disk, err))
		return
	}
	rb.Trace = c.Trace
	start := now
	rb.OnComplete = func(end sim.Time) {
		rs := rb.Stats()
		c.stats.Rebuilds++
		c.stats.RebuildTime += end - start
		c.stats.RebuildUREs += rs.UREs
		c.stats.RebuildUREsRepaired += rs.UREsRepaired
		c.stats.DataLossUnits += rs.DataLossUnits
		if err := c.arr.RepairDisk(replacement); err != nil {
			c.fault(fmt.Sprintf("fault: repair of disk %d: %v", disk, err))
			return
		}
		if c.Trace.Enabled() {
			c.Trace.Emit(end, obs.Event{Kind: obs.KDiskRepair, Dev: int32(disk), Page: -1})
		}
		if c.OnRepair != nil {
			c.OnRepair(end, disk)
		}
		if !c.arr.Degraded() && c.degradedSince >= 0 {
			c.stats.WindowOfVulnerability += end - c.degradedSince
			c.degradedSince = -1
		}
		c.rebuilding = false
		// A failure that arrived mid-rebuild is still waiting.
		c.maybeStartRebuild(end)
	}
	if c.OnRebuildStart != nil {
		c.OnRebuildStart(now, disk)
	}
	rb.Start(now)
}

// fault records the first asynchronous error and stops rebuilding.
func (c *Controller) fault(msg string) {
	if c.err == nil {
		c.err = fmt.Errorf("%s", msg)
	}
	c.rebuilding = false
}

// Finish closes the books at the end of the run: a still-open degraded
// window extends the window of vulnerability to now. Call after the engine
// has drained.
func (c *Controller) Finish(now sim.Time) {
	if c.finished {
		return
	}
	c.finished = true
	if c.degradedSince >= 0 {
		c.stats.WindowOfVulnerability += now - c.degradedSince
		c.degradedSince = -1
	}
}
