package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/ingest"
)

const (
	fixtureVersion = 3
	taskSeed       = 0x7a5c5eed
	// shardExamples keeps training shards small. The single ingest
	// reader reads and decodes a whole shard at once, on the core the
	// ranks share, so large shards make bursts that show as step-time
	// outliers; 1024 examples spread that work evenly.
	shardExamples = 1024
	// keepFixtures bounds the cache: older fixture directories beyond
	// this many are removed when a new one is generated.
	keepFixtures = 6
)

// fixture is a workload's materialised input for one seed: a training
// dataset holding at least one epoch of the run, and a held-out eval set
// of the same task.
type fixture struct {
	dir   string
	train string // ingest dataset directory
	eval  []*core.MiniBatch
	// batches is the whole training stream in memory, for the workloads
	// that bypass ingest.
	batches []*core.MiniBatch
	cached  bool
}

// fixtureKey hashes everything the generated bytes depend on.
func fixtureKey(w spec, seed int64, examples int) string {
	js, err := json.Marshal(struct {
		Version  int
		Cfg      core.Config
		Seed     int64
		Examples int
		Eval     int
		Opts     data.GeneratorOptions
	}{fixtureVersion, w.cfg, seed, examples, evalExamples, data.DefaultOptions()})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:8])
}

// loadFixture returns the workload's fixture for seed, generating it under
// root unless a cached copy passes checkFixture.
func loadFixture(root string, w spec, seed int64, p plan) (*fixture, error) {
	shards := (p.steps*batchSize + shardExamples - 1) / shardExamples
	examples := shards * shardExamples
	dir := filepath.Join(root, w.name+"-"+fixtureKey(w, seed, examples))
	fx := &fixture{dir: dir, train: filepath.Join(dir, "train"), cached: true}
	if err := checkFixture(dir, w.cfg, examples); err != nil {
		fx.cached = false
		if err := makeFixture(dir, w.cfg, seed, shards); err != nil {
			return nil, err
		}
		if err := checkFixture(dir, w.cfg, examples); err != nil {
			return nil, fmt.Errorf("fresh fixture fails its check: %w", err)
		}
		pruneFixtures(root, dir)
	}
	var err error
	if fx.eval, err = readBatches(filepath.Join(dir, "eval"), w.cfg, evalBatch); err != nil {
		return nil, err
	}
	if w.elastic {
		if fx.batches, err = readBatches(fx.train, w.cfg, batchSize); err != nil {
			return nil, err
		}
		if len(fx.batches) < p.steps {
			return nil, fmt.Errorf("fixture holds %d batches, run needs %d", len(fx.batches), p.steps)
		}
	}
	return fx, nil
}

// makeFixture generates the datasets into a temporary directory and
// renames it into place, so an interrupted run never leaves a directory
// that looks complete.
func makeFixture(dir string, cfg core.Config, seed int64, shards int) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	// Every seed samples the same task: the hidden teacher that plants the
	// labels and the held-out eval set come from taskSeed, and the seed
	// picks the training examples. Seeds then differ in their training
	// samples, not in how learnable their labels are or what NE is
	// measured on.
	task := data.NewGenerator(cfg, taskSeed, data.DefaultOptions())
	if err := task.Fork(taskSeed+1).WriteShards(filepath.Join(tmp, "eval"), 1, evalExamples); err != nil {
		return fmt.Errorf("writing eval set: %w", err)
	}
	if err := task.Fork(seed).WriteShards(filepath.Join(tmp, "train"), shards, shardExamples); err != nil {
		return fmt.Errorf("writing training set: %w", err)
	}
	return os.Rename(tmp, dir)
}

// checkFixture checks both datasets' MANIFEST.json against the workload:
// the feature schema, the example count, and each shard file's size.
func checkFixture(dir string, cfg core.Config, trainExamples int) error {
	for _, part := range []struct {
		name     string
		examples int
	}{{"train", trainExamples}, {"eval", evalExamples}} {
		ds, err := ingest.OpenDataset(filepath.Join(dir, part.name))
		if err != nil {
			return err
		}
		err = checkDataset(ds, cfg, part.examples)
		ds.Close()
		if err != nil {
			return fmt.Errorf("%s set: %w", part.name, err)
		}
	}
	return nil
}

func checkDataset(ds *ingest.Dataset, cfg core.Config, examples int) error {
	if err := ds.CompatibleWith(cfg); err != nil {
		return err
	}
	m := ds.Manifest
	for i, f := range m.Sparse { // CompatibleWith has matched counts and hash sizes
		s := cfg.Sparse[i]
		if f.MeanPooled != s.MeanPooled || f.MaxPooled != s.MaxPooled {
			return fmt.Errorf("manifest feature %d is %+v, workload wants %+v", i, f, s)
		}
	}
	if n := ds.Examples(); n != examples {
		return fmt.Errorf("manifest lists %d examples, want %d", n, examples)
	}
	for _, sh := range m.Shards {
		st, err := os.Stat(filepath.Join(ds.Dir, sh.File))
		if err != nil {
			return err
		}
		if st.Size() != sh.Bytes {
			return fmt.Errorf("%s is %d bytes, manifest says %d", sh.File, st.Size(), sh.Bytes)
		}
	}
	return nil
}

// pruneFixtures removes the oldest fixture directories beyond keepFixtures,
// never the one just made. It is best effort: a directory it cannot
// remove only costs disk space.
func pruneFixtures(root, keep string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	type aged struct {
		path string
		mod  int64
	}
	var dirs []aged
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !e.IsDir() {
			continue
		}
		if p := filepath.Join(root, e.Name()); p != keep {
			dirs = append(dirs, aged{p, info.ModTime().UnixNano()})
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod > dirs[j].mod })
	for i := keepFixtures - 1; i < len(dirs); i++ {
		os.RemoveAll(dirs[i].path)
	}
}

// readBatches streams a dataset once through a single-reader pipeline
// (a deterministic order) and returns copies of its batches.
func readBatches(dir string, cfg core.Config, batch int) ([]*core.MiniBatch, error) {
	ds, err := ingest.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	p, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: batch, Readers: 1, Epochs: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	var out []*core.MiniBatch
	for {
		b, err := p.NextBatch()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, cloneBatch(b))
		p.Recycle(b)
	}
}

func cloneBatch(b *core.MiniBatch) *core.MiniBatch {
	c := &core.MiniBatch{
		Dense:  b.Dense.Clone(),
		Bags:   make([]embedding.Bag, len(b.Bags)),
		Labels: slices.Clone(b.Labels),
	}
	for i, bag := range b.Bags {
		c.Bags[i] = embedding.Bag{Indices: slices.Clone(bag.Indices), Offsets: slices.Clone(bag.Offsets)}
	}
	return c
}
