package mr

import (
	"errors"
	"fmt"
)

// Engine capability and failure errors. These model the environment
// constraints the paper reports: Hadoop's missing secondary keys, the 1 GB
// per-machine memory budget, and the scheduler killing tasks that exceed
// the 48-hour deadline.
var (
	// ErrSecondaryKeys is returned when a job that requires secondary-key
	// sorted reduce lists is submitted to a cluster that does not support
	// them (Hadoop-compatible mode).
	ErrSecondaryKeys = errors.New("mr: job requires secondary keys, unsupported by this cluster")
	// ErrOutOfMemory is returned when a task reserves more memory than the
	// per-machine budget (the paper's thrashing/failure condition).
	ErrOutOfMemory = errors.New("mr: per-machine memory budget exceeded")
	// ErrTaskKilled is returned when a single task's simulated time exceeds
	// the scheduler deadline (the paper's VCL mappers were killed at 48 h).
	ErrTaskKilled = errors.New("mr: task exceeded scheduler deadline and was killed")
)

// CostModel holds the coefficients of the simulated-time accounting, in
// seconds. Absolute values are arbitrary; only ratios shape the results.
type CostModel struct {
	// JobStartup is charged once per MapReduce job (scheduling, binary
	// distribution, task setup). The paper notes start/stop time hampers
	// scaling at high machine counts.
	JobStartup float64
	// TaskOverhead is charged per task (map or reduce).
	TaskOverhead float64
	// CPUPerRecord is charged for every record read, emitted, combined, or
	// reduced.
	CPUPerRecord float64
	// IOPerByte is charged for every byte read from or written to the
	// distributed file system by a task.
	IOPerByte float64
	// NetPerByte is charged for every shuffled byte; the transfer is
	// parallel across machines.
	NetPerByte float64
	// SideLoadPerByte is charged on every machine that must load a
	// side-input table at stage start (the Lookup algorithm's fixed
	// overhead).
	SideLoadPerByte float64
	// MaxTaskSeconds kills any single task whose simulated time exceeds it.
	MaxTaskSeconds float64
}

// DefaultCostModel returns the coefficients NewCluster prices jobs
// with: the simulated seconds AllPairs and the vsmartjoin CLI report.
// The paper's figures use experiments.CostModel instead.
func DefaultCostModel() CostModel {
	return CostModel{
		JobStartup:      12.0,
		TaskOverhead:    0.02,
		CPUPerRecord:    12e-6,
		IOPerByte:       60e-9,
		NetPerByte:      240e-9,
		SideLoadPerByte: 500e-9,
		MaxTaskSeconds:  172_800, // 48 h
	}
}

// ClusterConfig describes the simulated cluster a job runs on.
type ClusterConfig struct {
	// Machines is the number of worker machines (the x-axis of Figs 5–6).
	Machines int
	// MemPerMachine is the per-machine memory budget in (simulated) bytes;
	// the paper allowed 1 GB.
	MemPerMachine int64
	// SupportsSecondaryKeys selects Google-MR semantics (true) or
	// Hadoop-compatible semantics (false).
	SupportsSecondaryKeys bool
	// ShuffleBufferBytes caps how many shuffle bytes a map task may buffer
	// in memory before spilling sorted runs to disk; the reduce stage then
	// streams each partition through a k-way merge of the spilled and
	// in-memory runs. 0 (the default) keeps the whole shuffle in memory.
	// Results are identical in both modes; spilling only bounds memory and
	// charges the extra disk I/O to the cost model.
	ShuffleBufferBytes int64
	// Cost is the simulated-time model.
	Cost CostModel
}

// Validate checks the configuration for sanity.
func (c ClusterConfig) Validate() error {
	if c.Machines < 1 {
		return fmt.Errorf("mr: cluster needs at least 1 machine, got %d", c.Machines)
	}
	if c.MemPerMachine <= 0 {
		return fmt.Errorf("mr: MemPerMachine must be positive, got %d", c.MemPerMachine)
	}
	if c.ShuffleBufferBytes < 0 {
		return fmt.Errorf("mr: ShuffleBufferBytes must be >= 0, got %d", c.ShuffleBufferBytes)
	}
	return nil
}

// NewCluster returns a ClusterConfig with the default cost model, the given
// machine count and memory budget, and secondary-key support enabled.
func NewCluster(machines int, memPerMachine int64) ClusterConfig {
	return ClusterConfig{
		Machines:              machines,
		MemPerMachine:         memPerMachine,
		SupportsSecondaryKeys: true,
		Cost:                  DefaultCostModel(),
	}
}

// Hadoop returns a copy of the config with secondary-key support disabled,
// mimicking the publicly available MapReduce implementation.
func (c ClusterConfig) Hadoop() ClusterConfig {
	c.SupportsSecondaryKeys = false
	return c
}

// assignTasks distributes per-task costs over machines with a greedy
// least-loaded policy (deterministic: tasks in index order, ties to the
// lowest machine id) and returns the per-machine totals.
func assignTasks(costs []float64, machines int) []float64 {
	load := make([]float64, machines)
	for _, c := range costs {
		best := 0
		for m := 1; m < machines; m++ {
			if load[m] < load[best] {
				best = m
			}
		}
		load[best] += c
	}
	return load
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
