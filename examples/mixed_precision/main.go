// Mixed-precision walkthrough: train the same workload at fp32 and with
// bf16 embedding tables + compressed collective wires, then compare the
// loss trajectories, the lookup-path memory footprint, and the metered
// collective bytes against the dtype-aware analytic volumes.
//
// The recipe is the production standard for comm- and capacity-bound
// DLRMs: optimizer math stays fp32 (master weights, split-SGD row
// re-quantization), only the lookup replicas and the wire payloads
// narrow — so quality holds while capacity halves and collective
// traffic drops 2–3.8x.
package main

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

func main() {
	base := core.Config{
		Name:          "mixed-precision-demo",
		DenseFeatures: 32,
		Sparse:        core.UniformSparse(8, 5000, 5),
		EmbeddingDim:  16,
		BottomMLP:     []int{64},
		TopMLP:        []int{64, 32},
		Interaction:   core.DotProduct,
	}
	const iters, batch, ranks = 60, 128, 2

	run := func(dt tensor.DType, wire collective.WireFormat) (mean float64, a2a, ar int64) {
		cfg := base
		cfg.TableDType = dt
		ht, err := hybrid.New(cfg, hybrid.Config{
			Ranks: ranks, LR: 0.05, Seed: 1,
			WireA2A: wire, WireAllReduce: wire,
		})
		if err != nil {
			panic(err)
		}
		defer ht.Close()
		gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
		for i := 0; i < iters; i++ {
			loss, _, err := ht.Step(gen.NextBatch(batch))
			if err != nil {
				panic(err)
			}
			mean += loss / iters
		}
		st := ht.CollectiveStats()
		return mean, st.AllToAll.Bytes / iters, st.AllReduce.Bytes / iters
	}

	// 1. fp32 baseline vs bf16 tables + fp16 all-to-all / int8 all-reduce.
	fp32Loss, fp32A2A, fp32AR := run(tensor.FP32, collective.WireFP32)
	mixLoss, mixA2A, mixAR := run(tensor.BF16, collective.WireFP16)

	fmt.Printf("fp32      : mean loss %.4f  a2a %6d B/iter  allreduce %6d B/iter\n",
		fp32Loss, fp32A2A, fp32AR)
	fmt.Printf("bf16/fp16 : mean loss %.4f  a2a %6d B/iter  allreduce %6d B/iter\n",
		mixLoss, mixA2A, mixAR)
	fmt.Printf("quality drift %.3f%% of baseline, wire compression %.2fx\n",
		100*math.Abs(mixLoss-fp32Loss)/fp32Loss,
		float64(fp32A2A+fp32AR)/float64(mixA2A+mixAR))

	// 2. The meters match the dtype-aware analytic volumes.
	bpe := collective.WireFP16.BytesPerElem()
	wantA2A := perfmodel.HybridAllToAllBytesWire(base, batch, ranks, bpe)
	wantAR := perfmodel.HybridAllReduceBytesWire(base, ranks, bpe)
	fmt.Printf("analytic  : a2a %.0f B/iter (meter/analytic %.3f), allreduce %.0f B/iter (%.3f)\n",
		wantA2A, float64(mixA2A)/wantA2A, wantAR, float64(mixAR)/wantAR)

	// 3. Capacity: the lookup path halves; masters live in optimizer state.
	bf16 := base
	bf16.TableDType = tensor.BF16
	fmt.Printf("embedding lookup bytes: fp32 %d, bf16 %d\n",
		base.EmbeddingBytes(), bf16.EmbeddingBytes())
}
