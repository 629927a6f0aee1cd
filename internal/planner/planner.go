// Package planner is a one-type shim: benchmark/ladder.go passes
// planner.Heuristic{} to index.Index.SetPlanner and shard.Set.SetPlanner.
// The online index has one candidate-generation path, so there is
// nothing to plan.
package planner

// Heuristic remains only because benchmark/ladder.go names it.
type Heuristic struct{}
