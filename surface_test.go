package vsmartjoin_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vsmartjoin"
)

// publicSurface is the exported method set of *Index and *Cluster, one
// "Type.Method signature" line each in reflect's spelling, where an
// alias prints as the type it names (a Mutation is a cluster.BulkOp).
const publicSurface = `Index.Add func(string, map[string]uint32) error
Index.AddBatch func([]cluster.BatchEntry) error
Index.AddDataset func(*vsmartjoin.Dataset) error
Index.Apply func(context.Context, []cluster.BulkOp) ([]bool, error)
Index.Close func() error
Index.Elements func(string) (map[string]uint32, bool)
Index.Generation func() uint64
Index.Len func() int
Index.Metrics func() vsmartjoin.IndexMetrics
Index.Query func(context.Context, cluster.Query) (cluster.QueryResult, error)
Index.QueryEntity func(string, float64) ([]cluster.Match, error)
Index.QueryKNN func(map[string]uint32, int) []cluster.Neighbor
Index.QueryKNNEntity func(string, int) ([]cluster.Neighbor, error)
Index.QueryThreshold func(map[string]uint32, float64) ([]cluster.Match, error)
Index.QueryTopK func(map[string]uint32, int) []cluster.Match
Index.Remove func(string) (bool, error)
Index.RemoveBatch func([]string) (int, error)
Index.Snapshot func() error
Index.Stats func() vsmartjoin.IndexStats
Cluster.Add func(string, map[string]uint32) error
Cluster.AddBatch func([]cluster.BatchEntry) error
Cluster.Apply func(context.Context, []cluster.BulkOp) ([]bool, error)
Cluster.CheckNow func(context.Context)
Cluster.Close func()
Cluster.Metrics func() cluster.Metrics
Cluster.PendingRepairs func() int
Cluster.Query func(context.Context, cluster.Query) (cluster.QueryResult, error)
Cluster.QueryEntity func(string, float64) ([]cluster.Match, error)
Cluster.QueryKNN func(map[string]uint32, int) ([]cluster.Neighbor, error)
Cluster.QueryKNNEntity func(string, int) ([]cluster.Neighbor, error)
Cluster.QueryThreshold func(map[string]uint32, float64) ([]cluster.Match, error)
Cluster.QueryTopK func(map[string]uint32, int) ([]cluster.Match, error)
Cluster.Ready func() (bool, bool)
Cluster.Remove func(string) (bool, error)
Cluster.RepairNow func(context.Context)
Cluster.Snapshot func() error
Cluster.Stats func() cluster.Stats`

// TestPublicSurface pins the exported methods of the two serving types
// against publicSurface, so a method an alias leaks from an internal
// package, or a convenience dropped in a refactor, fails here rather
// than in a downstream build. A deliberate change updates the list.
func TestPublicSurface(t *testing.T) {
	var lines []string
	for _, v := range []any{new(vsmartjoin.Index), new(vsmartjoin.Cluster)} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumMethod(); i++ {
			lines = append(lines, fmt.Sprintf("%s.%s %s", rv.Type().Elem().Name(), rv.Type().Method(i).Name, rv.Method(i).Type()))
		}
	}
	if got := strings.Join(lines, "\n"); got != publicSurface {
		t.Errorf("exported methods:\n%s\nwant\n%s", got, publicSurface)
	}
}
