package engine

import (
	"fmt"

	"repro/internal/sim"
)

// Config is the engine's calibrated cost model and fault-tolerance
// configuration. Zero fields take the documented defaults (applied by
// withDefaults); the defaults are calibrated so that the experiment
// latencies land in the paper's regime (seconds to tens of seconds for
// the Fig. 6 topology at 1000-2000 tuples/s per source task).
type Config struct {
	// BatchInterval is the length of one processing batch in virtual
	// seconds (default 1s). Batch-over punctuations delimit batches
	// (§V-B).
	BatchInterval sim.Time
	// NetDelay is the one-hop delivery delay between tasks (default
	// 50ms).
	NetDelay sim.Time
	// ProcRate is each task's processing capacity in tuples per second
	// (default 8000, calibrated to the paper's m1.medium nodes so that
	// replay-driven recovery latencies land in the reported regime).
	// Recovery replay speed is bounded by ProcRate minus the ongoing
	// input rate.
	ProcRate float64
	// PerBatchOverhead is the fixed processing cost per batch (default
	// 2ms).
	PerBatchOverhead sim.Time
	// HeartbeatInterval drives failure detection (default 5s, §VI).
	HeartbeatInterval sim.Time
	// CheckpointInterval is the per-task checkpoint period; 0 disables
	// checkpoints (Storm mode).
	CheckpointInterval sim.Time
	// CheckpointFixed and CheckpointByteRate model snapshot cost:
	// save time = CheckpointFixed + bytes/CheckpointByteRate
	// (defaults 20ms and 5 MB/s).
	CheckpointFixed    sim.Time
	CheckpointByteRate float64
	// RestoreFixed and RestoreByteRate model checkpoint loading
	// (defaults 500ms — includes redeployment of the task binary on a
	// standby node — and 10 MB/s).
	RestoreFixed    sim.Time
	RestoreByteRate float64
	// RestartCost is the extra cost of restarting a task from scratch
	// in source-replay recovery (default 1s).
	RestartCost sim.Time
	// ReplicaTrimInterval is the period at which a primary acknowledges
	// output progress to its active replica so the replica can trim its
	// output buffer (default 5s). Longer intervals mean more buffered
	// tuples to resend at take-over (§V-B Active Replication).
	ReplicaTrimInterval sim.Time
	// ReplicaActivateCost is the fixed cost of switching a replica's
	// output on (default 200ms).
	ReplicaActivateCost sim.Time
	// ResendRate is the rate at which buffered tuples are resent and
	// deduplicated during replica take-over, in tuples per second
	// (default 50000; resending is cheaper than processing).
	ResendRate float64
	// RecoveryPollInterval is the period at which a checkpoint-restored
	// task polls for its failed upstream peers to catch up before its
	// own recovery starts (the §V-B synchronisation). The default is
	// HeartbeatInterval/20, so the synchronisation cost scales with the
	// failure-detection cadence.
	RecoveryPollInterval sim.Time
	// TentativeOutputs enables fabricated batch-over punctuations for
	// failed tasks so the surviving topology keeps producing (§V-B).
	// Tentativeness propagates: a task that processed any fabricated or
	// tentative input emits tentative output, so the taint reaches sinks
	// at any depth, and recovered tasks trigger amendment corrections.
	TentativeOutputs bool
	// WindowBatches is the number of batches covered by the query's
	// sliding window; source-replay recovery replays the unfinished
	// windows, i.e. this many batches back (default 30).
	WindowBatches int
}

// validate rejects a negative or NaN duration or rate and a negative
// WindowBatches, naming the field. The Config reaches workers as JSON,
// so it is outside input: a negative delay would run the clock
// backwards, and a NaN one compares false against every deadline.
// Zero is valid everywhere — it selects the default.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"BatchInterval", float64(c.BatchInterval)},
		{"NetDelay", float64(c.NetDelay)},
		{"ProcRate", c.ProcRate},
		{"PerBatchOverhead", float64(c.PerBatchOverhead)},
		{"HeartbeatInterval", float64(c.HeartbeatInterval)},
		{"CheckpointInterval", float64(c.CheckpointInterval)},
		{"CheckpointFixed", float64(c.CheckpointFixed)},
		{"CheckpointByteRate", c.CheckpointByteRate},
		{"RestoreFixed", float64(c.RestoreFixed)},
		{"RestoreByteRate", c.RestoreByteRate},
		{"RestartCost", float64(c.RestartCost)},
		{"ReplicaTrimInterval", float64(c.ReplicaTrimInterval)},
		{"ReplicaActivateCost", float64(c.ReplicaActivateCost)},
		{"ResendRate", c.ResendRate},
		{"RecoveryPollInterval", float64(c.RecoveryPollInterval)},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("engine: invalid Config.%s %v: want a non-negative number (0 selects the default)", f.name, f.v)
		}
	}
	if c.WindowBatches < 0 {
		return fmt.Errorf("engine: invalid Config.WindowBatches %d: want a non-negative count (0 selects the default)", c.WindowBatches)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.BatchInterval == 0 {
		c.BatchInterval = 1
	}
	if c.NetDelay == 0 {
		c.NetDelay = 0.05
	}
	if c.ProcRate == 0 {
		c.ProcRate = 8000
	}
	if c.PerBatchOverhead == 0 {
		c.PerBatchOverhead = 0.002
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 5
	}
	if c.RecoveryPollInterval == 0 {
		c.RecoveryPollInterval = c.HeartbeatInterval / 20
	}
	if c.CheckpointFixed == 0 {
		c.CheckpointFixed = 0.02
	}
	if c.CheckpointByteRate == 0 {
		c.CheckpointByteRate = 5e6
	}
	if c.RestoreFixed == 0 {
		c.RestoreFixed = 0.5
	}
	if c.RestoreByteRate == 0 {
		c.RestoreByteRate = 10e6
	}
	if c.RestartCost == 0 {
		c.RestartCost = 1
	}
	if c.ReplicaTrimInterval == 0 {
		c.ReplicaTrimInterval = 5
	}
	if c.ReplicaActivateCost == 0 {
		c.ReplicaActivateCost = 0.2
	}
	if c.ResendRate == 0 {
		c.ResendRate = 50000
	}
	if c.WindowBatches == 0 {
		c.WindowBatches = 30
	}
	return c
}
