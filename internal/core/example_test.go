package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// ExampleDescribe prints the Table II summary of M3prod — the model
// whose embedding tables exceed a Big Basin's GPU memory.
func ExampleDescribe() {
	m3 := workload.ProdModels()[2]
	fmt.Println(core.Describe(m3))
	// Output: M3prod: 809 dense, 127 sparse, 224.1 GB embeddings, 6223 lookups/example
}
