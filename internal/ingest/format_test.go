package ingest

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

func testCfg() core.Config {
	return core.Config{
		Name:          "ingest-test",
		DenseFeatures: 4,
		Sparse:        core.UniformSparse(2, 100, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{8},
		TopMLP:        []int{8},
		Interaction:   core.Concat,
	}
}

// handBatch builds a deterministic MiniBatch without the data package
// (which imports ingest).
func handBatch(cfg core.Config, rng *xrand.RNG, b int) *core.MiniBatch {
	mb := &core.MiniBatch{Dense: tensor.New(b, cfg.DenseFeatures)}
	for i := range mb.Dense.Data {
		mb.Dense.Data[i] = float32(rng.Norm())
	}
	mb.Bags = make([]embedding.Bag, cfg.NumSparse())
	for f := range mb.Bags {
		bag := &mb.Bags[f]
		bag.Offsets = append(bag.Offsets, 0)
		for i := 0; i < b; i++ {
			n := 1 + rng.Intn(4)
			for k := 0; k < n; k++ {
				bag.Indices = append(bag.Indices, int32(rng.Intn(cfg.Sparse[f].HashSize)))
			}
			bag.Offsets = append(bag.Offsets, int32(len(bag.Indices)))
		}
	}
	mb.Labels = make([]float32, b)
	for i := range mb.Labels {
		if rng.Float32() < 0.3 {
			mb.Labels[i] = 1
		}
	}
	return mb
}

func writeTestDataset(t *testing.T, cfg core.Config, seed int64, shards, perShard int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := NewShardWriter(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	for s := 0; s < shards; s++ {
		if err := w.Append(handBatch(cfg, rng, perShard)); err != nil {
			t.Fatal(err)
		}
		if err := w.EndShard(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestShardRoundTrip pins the wire format: what the writer serializes,
// decodeShard restores bit-exactly.
func TestShardRoundTrip(t *testing.T) {
	cfg := testCfg()
	dir := t.TempDir()
	w, err := NewShardWriter(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	mb := handBatch(cfg, rng, 17)
	if err := w.Append(mb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.Examples() != 17 {
		t.Fatalf("dataset holds %d examples, want 17", ds.Examples())
	}
	raw, err := os.ReadFile(filepath.Join(dir, ds.Manifest.Shards[0].File))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != ds.Manifest.Shards[0].Bytes {
		t.Fatalf("shard file %d bytes, manifest says %d", len(raw), ds.Manifest.Shards[0].Bytes)
	}
	var blk block
	if err := decodeShard(raw, &ds.Manifest, &blk); err != nil {
		t.Fatal(err)
	}
	if blk.n != 17 {
		t.Fatalf("decoded %d examples, want 17", blk.n)
	}
	for i := 0; i < blk.n; i++ {
		for j := 0; j < cfg.DenseFeatures; j++ {
			if got, want := blk.dense[i*cfg.DenseFeatures+j], mb.Dense.At(i, j); got != want {
				t.Fatalf("dense[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
		if got := float32(blk.labels[i]); got != mb.Labels[i] {
			t.Fatalf("label[%d] = %v, want %v", i, got, mb.Labels[i])
		}
		for f := range mb.Bags {
			bag := &mb.Bags[f]
			want := bag.Indices[bag.Offsets[i]:bag.Offsets[i+1]]
			got := blk.featIdx[f][blk.featOff[f][i]:blk.featOff[f][i+1]]
			if len(got) != len(want) {
				t.Fatalf("example %d feature %d: %d indices, want %d", i, f, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("example %d feature %d index %d: %d, want %d", i, f, k, got[k], want[k])
				}
			}
		}
	}
}

func TestManifestAndCompat(t *testing.T) {
	cfg := testCfg()
	dir := writeTestDataset(t, cfg, 2, 3, 8)
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if len(ds.Manifest.Shards) != 3 || ds.Examples() != 24 {
		t.Fatalf("manifest: %d shards / %d examples, want 3 / 24", len(ds.Manifest.Shards), ds.Examples())
	}
	if err := ds.CompatibleWith(cfg); err != nil {
		t.Fatalf("same config rejected: %v", err)
	}
	back := ds.Config()
	back.EmbeddingDim = cfg.EmbeddingDim
	back.BottomMLP = cfg.BottomMLP
	back.TopMLP = cfg.TopMLP
	if err := back.Validate(); err != nil {
		t.Fatalf("reconstructed config invalid: %v", err)
	}
	if err := ds.CompatibleWith(back); err != nil {
		t.Fatalf("reconstructed config rejected: %v", err)
	}

	bad := cfg
	bad.DenseFeatures = 9
	if err := ds.CompatibleWith(bad); err == nil {
		t.Error("dense mismatch accepted")
	}
	bad = cfg
	bad.Sparse = core.UniformSparse(2, 999, 3)
	if err := ds.CompatibleWith(bad); err == nil {
		t.Error("hash-size mismatch accepted")
	}
	bad = cfg
	bad.Sparse = core.UniformSparse(3, 100, 3)
	if err := ds.CompatibleWith(bad); err == nil {
		t.Error("sparse-count mismatch accepted")
	}
}

func TestOpenDatasetErrors(t *testing.T) {
	if _, err := OpenDataset(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	// Corrupt a shard and make sure decode catches it.
	cfg := testCfg()
	dir := writeTestDataset(t, cfg, 3, 1, 4)
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	raw, err := os.ReadFile(filepath.Join(dir, ds.Manifest.Shards[0].File))
	if err != nil {
		t.Fatal(err)
	}
	var blk block
	if err := decodeShard(raw[:len(raw)-3], &ds.Manifest, &blk); err == nil {
		t.Error("truncated shard decoded without error")
	}
	raw[0] ^= 0xff
	if err := decodeShard(raw, &ds.Manifest, &blk); err == nil {
		t.Error("bad magic decoded without error")
	}
}

// hugeCountShard is a 30-byte shard whose header claims 2^32-1 examples
// of testCfg's schema; before the header count was bounded, decoding it
// sized its slabs by that count and died with an out-of-memory fatal.
func hugeCountShard() []byte {
	raw := make([]byte, 30)
	binary.LittleEndian.PutUint32(raw, shardMagic)
	binary.LittleEndian.PutUint32(raw[4:], 4)
	binary.LittleEndian.PutUint32(raw[8:], 2)
	binary.LittleEndian.PutUint32(raw[12:], math.MaxUint32)
	return raw
}

// fuzzManifest matches testCfg's schema and holds 64 examples.
func fuzzManifest() *Manifest {
	man := &Manifest{Version: 1, DenseFeatures: 4}
	for _, s := range testCfg().Sparse {
		man.Sparse = append(man.Sparse, ManifestFeature{Name: s.Name, HashSize: s.HashSize})
	}
	man.Shards = []ManifestShard{{File: "shard-00000.rsd", Examples: 64}}
	return man
}

func TestDecodeShardBoundsCount(t *testing.T) {
	man := fuzzManifest()
	var blk block
	err := decodeShard(hugeCountShard(), man, &blk)
	if err == nil || !strings.Contains(err.Error(), "manifest holds 64") {
		t.Errorf("count above the manifest: err = %v", err)
	}
	// Within the manifest's count, but 14 payload bytes cannot hold even
	// one 25-byte record.
	raw := hugeCountShard()
	binary.LittleEndian.PutUint32(raw[12:], 8)
	err = decodeShard(raw, man, &blk)
	if err == nil || !strings.Contains(err.Error(), "14 bytes hold at most 0") {
		t.Errorf("count above the payload: err = %v", err)
	}
}

// FuzzDecodeShard feeds arbitrary shard images to the decoder: it must
// return an error or a block consistent with its own header, never panic
// or allocate beyond what the input can describe. The committed corpus
// (testdata/fuzz/FuzzDecodeShard) holds hugeCountShard and the two
// count-bound rejections.
func FuzzDecodeShard(f *testing.F) {
	cfg := testCfg()
	dir := f.TempDir()
	w, err := NewShardWriter(dir, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(handBatch(cfg, xrand.New(1), 8)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "shard-00000.rsd"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])

	man := fuzzManifest()
	f.Fuzz(func(t *testing.T, raw []byte) {
		var blk block
		if err := decodeShard(raw, man, &blk); err != nil {
			return
		}
		if blk.n > man.Examples() || len(blk.labels) != blk.n || len(blk.dense) != blk.n*man.DenseFeatures {
			t.Fatalf("decoded %d examples, %d labels, %d dense values", blk.n, len(blk.labels), len(blk.dense))
		}
		for fi := range man.Sparse {
			off := blk.featOff[fi]
			if int(off[blk.n]) != len(blk.featIdx[fi]) {
				t.Fatalf("feature %d: end offset %d, %d indices", fi, off[blk.n], len(blk.featIdx[fi]))
			}
			for i := 0; i < blk.n; i++ {
				if off[i] > off[i+1] {
					t.Fatalf("feature %d: offsets decrease at example %d", fi, i)
				}
			}
		}
	})
}
