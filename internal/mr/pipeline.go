package mr

import "fmt"

// PipelineStats aggregates the per-job stats of a multi-step run — the
// quantity plotted on the y-axes of the paper's Figs 4–7.
type PipelineStats struct {
	Jobs         []JobStats
	TotalSeconds float64 // simulated
	WallSeconds  float64 // real time spent inside the jobs' Run calls
}

// Add appends one job's stats.
func (p *PipelineStats) Add(s JobStats) {
	p.Jobs = append(p.Jobs, s)
	p.TotalSeconds += s.TotalSeconds
	p.WallSeconds += s.WallSeconds
}

// Merge appends all of another pipeline's stats.
func (p *PipelineStats) Merge(o PipelineStats) {
	p.Jobs = append(p.Jobs, o.Jobs...)
	p.TotalSeconds += o.TotalSeconds
	p.WallSeconds += o.WallSeconds
}

// Job returns the stats of the named job, if present.
func (p *PipelineStats) Job(name string) (JobStats, bool) {
	for _, j := range p.Jobs {
		if j.Name == name {
			return j, true
		}
	}
	return JobStats{}, false
}

// Counter sums the named counter over all jobs.
func (p *PipelineStats) Counter(name string) int64 {
	var total int64
	for _, j := range p.Jobs {
		total += j.Counters[name]
	}
	return total
}

func (p *PipelineStats) String() string {
	s := fmt.Sprintf("pipeline: %.1fs simulated, %.0fms wall over %d jobs\n", p.TotalSeconds, p.WallSeconds*1e3, len(p.Jobs))
	for _, j := range p.Jobs {
		s += "  " + j.String() + "\n"
	}
	return s
}
