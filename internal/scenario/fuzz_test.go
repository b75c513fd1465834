package scenario

import (
	"os"
	"testing"
)

// FuzzParse: the JSON scenario loader must return an error on malformed
// input — never panic — and anything it accepts must be internally
// consistent (validated, with a positive point count).
func FuzzParse(f *testing.F) {
	// Seed with every shipped example scenario plus targeted mutations of
	// the tricky corners (unknown fields, wrong-workload sections, axis
	// duplicates, trailing data, deep nesting).
	files, _ := os.ReadDir("../../examples/scenarios")
	for _, fe := range files {
		if data, err := os.ReadFile("../../examples/scenarios/" + fe.Name()); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"noc-synthetic"}`))
	f.Add([]byte(`{"workload":"noc-synthetic","noc":{"width":4,"height":4,"patterns":["uniform"],"routers":["wormhole"],"rates":[0.5]}}`))
	f.Add([]byte(`{"workload":"noc-synthetic","noc":{"width":4,"height":4,"patterns":["uniform","uniform"],"rates":[0.5]}}`))
	f.Add([]byte(`{"workload":"jacobi","jacobi":{"n":30,"cores":[2],"cache_kb":[8]}}`))
	f.Add([]byte(`{"workload":"jacobi","jacobi":{"n":30,"cores":[2],"cache_kb":[8]},"seeds":[1,2]}`))
	f.Add([]byte(`{"workloads":["jacobi","matmul","syncbench"],"kernel":{"n":16,"cores":[2,4],"cache_kb":[8],"variants":["hybrid-full","pure-sm"],"rounds":5}}`))
	f.Add([]byte(`{"workloads":["syncbench","noc-synthetic"],"kernel":{"cores":[2],"cache_kb":[8]}}`))
	f.Add([]byte(`{"workload":"jacobi","workloads":["matmul"],"kernel":{"n":16,"cores":[2],"cache_kb":[8]}}`))
	f.Add([]byte(`{"workload":"syncbench","kernel":{"cores":[2],"cache_kb":[8],"variants":["hybrid-sync"]}}`))
	f.Add([]byte(`{"workload":"matmul","kernel":{"n":16,"variant":"pure-sm","variants":["hybrid-full"],"cores":[2],"cache_kb":[8]}}`))
	f.Add([]byte(`{"workload":"noc-synthetic","noc":{"width":4,"height":4,"patterns":["uniform"],"rates":[2.5]}}`))
	f.Add([]byte(`{"workload":"noc-synthetic","nos":{}}`))
	f.Add([]byte(`{"workload":"noc-synthetic","noc":{"width":4,"height":4,"patterns":["uniform"],"rates":[0.5]}}{"trailing":1}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte("\xff\xfe{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Whatever Parse accepts must be safe to interrogate.
		if s.NumPoints() <= 0 {
			t.Fatalf("accepted scenario has %d points:\n%s", s.NumPoints(), data)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted scenario fails re-validation: %v\n%s", err, data)
		}
		if got := summaryProduct(t, s); got != s.NumPoints() {
			t.Fatalf("summary axes multiply to %d, NumPoints = %d: %q\n%s", got, s.NumPoints(), Summary(s), data)
		}
	})
}
