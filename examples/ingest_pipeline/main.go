// Example ingest_pipeline materializes a sharded on-disk dataset, then
// trains both the single-process and the hybrid-parallel trainer from it
// through the staged ingestion pipeline — parallel shard decode, bounded
// shuffle, RecD-style within-batch dedup, and a recycled prefetch ring —
// printing the per-stage meters the ingest_scaling experiment sweeps.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/xrand"
)

func main() {
	cfg := core.Config{
		Name:          "ingest-example",
		DenseFeatures: 16,
		Sparse:        core.UniformSparse(4, 5000, 4),
		EmbeddingDim:  16,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   core.DotProduct,
	}

	// 1. Materialize: the deterministic generator writes shard files plus
	// a manifest (equal seeds write bit-identical datasets).
	dir, err := os.MkdirTemp("", "ingest_example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	gen := data.NewGenerator(cfg, 42, data.DefaultOptions())
	if err := gen.WriteShards(dir, 4, 1024); err != nil {
		log.Fatal(err)
	}

	ds, err := ingest.OpenDataset(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	fmt.Printf("dataset: %d examples in %d shards (%d bytes)\n\n",
		ds.Examples(), len(ds.Manifest.Shards), ds.Bytes())

	// 2. Single-process trainer from disk, dedup on.
	pipe, err := ingest.Open(ds, cfg, ingest.Options{
		BatchSize: 128, Readers: 2, Dedup: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr := core.NewTrainer(core.NewModel(cfg, xrand.New(1)), core.TrainerConfig{LR: 0.05})
	loss, steps, err := tr.TrainFrom(pipe, 50)
	if err != nil {
		log.Fatal(err)
	}
	m := pipe.Meters()
	pipe.Close()
	fmt.Printf("single trainer: %d steps from disk, mean loss %.4f\n", steps, loss)
	fmt.Printf("  meters: read %.1f MB/s, dedup ratio %.2f, starved %.1f%%, ring occupancy %.2f\n\n",
		m.ReadMBps(), m.DedupRatio(), 100*m.StarvationFrac(), m.Occupancy())

	// 3. The same interface feeds the hybrid-parallel engine.
	pipe2, err := ingest.Open(ds, cfg, ingest.Options{
		BatchSize: 128, Readers: 2, Dedup: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pipe2.Close()
	ht, err := hybrid.New(cfg, hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ht.Close()
	hLoss, _, hSteps, err := ht.TrainFrom(pipe2, 25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid trainer: %d ranks, %d steps from disk, mean loss %.4f\n",
		ht.Ranks(), hSteps, hLoss)
}
