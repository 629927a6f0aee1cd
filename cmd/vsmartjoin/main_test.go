package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins the flag combinations the command refuses instead
// of quietly running something else.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name       string
		threshold  float64
		knn        int
		shufbuf    int64
		buildIndex string
		partitions int
		wantErr    string // "" means accepted
	}{
		{name: "join", threshold: 0.5},
		{name: "knn", threshold: 0.5, knn: 3},
		{name: "build index", threshold: 0.5, buildIndex: "idx"},
		{name: "build cluster", threshold: 0.5, buildIndex: "idx", partitions: 3},
		{name: "negative threshold", threshold: -1, wantErr: "threshold"},
		{name: "negative knn", threshold: 0.5, knn: -2, wantErr: "-knn -2"},
		{name: "build-cluster without build-index", threshold: 0.5, partitions: 3, wantErr: "needs -build-index"},
		{name: "negative build-cluster", threshold: 0.5, buildIndex: "idx", partitions: -1, wantErr: "-build-cluster -1"},
		{name: "knn with build-index", threshold: 0.5, knn: 3, buildIndex: "idx", wantErr: "exclusive"},
		{name: "join with shuffle-buffer", threshold: 0.5, shufbuf: 2048},
		{name: "shuffle-buffer with build-index", threshold: 0.5, shufbuf: 2048, buildIndex: "idx", wantErr: "-shuffle-buffer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.threshold, tc.knn, tc.shufbuf, tc.buildIndex, tc.partitions)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("accepted, want an error naming %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}
