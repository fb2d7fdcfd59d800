// Package ingest is the real (executing, not simulated) data-ingestion
// subsystem: a compact sharded on-disk record format plus a staged reader
// pipeline that decodes shards in parallel, shuffles through a bounded
// buffer, assembles recycled MiniBatches with RecD-style within-batch
// sparse dedup, and feeds either trainer through core.BatchSource with
// explicit backpressure. It is the in-process analogue of the paper's
// disaggregated reader tier (§IV-B2): ingestion bandwidth can bound
// end-to-end training throughput just like FLOPs or memory, and the
// pipeline's per-stage meters (shard-read MB/s, dedup ratio, prefetch
// occupancy, trainer starvation) make the reader-bound vs trainer-bound
// regimes of the ingest_scaling experiment observable rather than modeled.
//
// On-disk layout of a dataset directory:
//
//	MANIFEST.json    dataset schema + shard index
//	shard-00000.rsd  examples (see shard format below)
//	shard-00001.rsd  ...
//
// Shard format (all integers little-endian):
//
//	magic   uint32  'R','S','D','1'
//	dense   uint32  dense feature count
//	sparse  uint32  sparse feature count
//	count   uint32  examples in this shard
//	records:
//	  label  uint8            0 or 1
//	  dense  float32 × dense  IEEE-754 bits
//	  per sparse feature:
//	    n    uint16           index count
//	    idx  int32 × n        embedding row ids
//
// The format is deliberately flat: a shard decodes with one sequential
// pass and no per-record framing beyond the counts, so the decode stage
// is bandwidth-shaped, and two writers fed identical example streams
// produce bit-identical files (the determinism contract of
// data.Generator.WriteShards).
package ingest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
)

const (
	shardMagic   = uint32('R') | uint32('S')<<8 | uint32('D')<<16 | uint32('1')<<24
	shardHeader  = 16 // magic + dense + sparse + count
	manifestName = "MANIFEST.json"
)

// ManifestFeature records one sparse feature's schema in the manifest.
type ManifestFeature struct {
	Name       string  `json:"name"`
	HashSize   int     `json:"hash_size"`
	MeanPooled float64 `json:"mean_pooled"`
	MaxPooled  int     `json:"max_pooled"`
}

// ManifestShard indexes one shard file.
type ManifestShard struct {
	File     string `json:"file"`
	Examples int    `json:"examples"`
	Bytes    int64  `json:"bytes"`
}

// Manifest is the dataset's schema and shard index, stored as
// MANIFEST.json in the dataset directory.
type Manifest struct {
	Version       int               `json:"version"`
	DenseFeatures int               `json:"dense_features"`
	Sparse        []ManifestFeature `json:"sparse"`
	Shards        []ManifestShard   `json:"shards"`
}

// ShardWriter materializes a dataset directory shard by shard. Append
// batches with Append, cut shard boundaries with EndShard, and Close to
// write the manifest. The writer buffers one shard in memory (shards are
// meant to be modest — thousands of examples), so the files it emits are
// a pure function of the appended example stream.
type ShardWriter struct {
	dir      string
	cfg      core.Config
	man      Manifest
	buf      []byte
	examples int
	closed   bool
}

// NewShardWriter creates dir (if needed) and returns a writer for
// datasets matching cfg's feature space.
func NewShardWriter(dir string, cfg core.Config) (*ShardWriter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating dataset dir: %w", err)
	}
	w := &ShardWriter{dir: dir, cfg: cfg}
	w.man.Version = 1
	w.man.DenseFeatures = cfg.DenseFeatures
	for _, s := range cfg.Sparse {
		w.man.Sparse = append(w.man.Sparse, ManifestFeature{
			Name: s.Name, HashSize: s.HashSize, MeanPooled: s.MeanPooled, MaxPooled: s.MaxPooled,
		})
	}
	return w, nil
}

// Append serializes every example of the batch into the current shard.
func (w *ShardWriter) Append(mb *core.MiniBatch) error {
	if w.closed {
		return fmt.Errorf("ingest: Append after Close")
	}
	if err := mb.Validate(&w.cfg); err != nil {
		return fmt.Errorf("ingest: appending batch: %w", err)
	}
	B := mb.Batch()
	for i := 0; i < B; i++ {
		if mb.Labels[i] > 0.5 {
			w.buf = append(w.buf, 1)
		} else {
			w.buf = append(w.buf, 0)
		}
		for _, v := range mb.Dense.Row(i) {
			w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(v))
		}
		for f := range mb.Bags {
			bag := &mb.Bags[f]
			idxs := bag.Indices[bag.Offsets[i]:bag.Offsets[i+1]]
			if len(idxs) > math.MaxUint16 {
				return fmt.Errorf("ingest: example %d feature %d has %d indices (max %d)",
					i, f, len(idxs), math.MaxUint16)
			}
			w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(idxs)))
			for _, ix := range idxs {
				w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(ix))
			}
		}
	}
	w.examples += B
	return nil
}

// EndShard flushes the buffered examples as the next shard file. Ending
// an empty shard is a no-op.
func (w *ShardWriter) EndShard() error {
	if w.closed {
		return fmt.Errorf("ingest: EndShard after Close")
	}
	if w.examples == 0 {
		return nil
	}
	name := fmt.Sprintf("shard-%05d.rsd", len(w.man.Shards))
	hdr := make([]byte, 0, shardHeader)
	hdr = binary.LittleEndian.AppendUint32(hdr, shardMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.cfg.DenseFeatures))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.cfg.NumSparse()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w.examples))
	path := filepath.Join(w.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ingest: creating shard: %w", err)
	}
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(w.buf)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ingest: writing shard %s: %w", name, err)
	}
	w.man.Shards = append(w.man.Shards, ManifestShard{
		File: name, Examples: w.examples, Bytes: int64(shardHeader + len(w.buf)),
	})
	w.buf = w.buf[:0]
	w.examples = 0
	return nil
}

// Close ends the current shard (if non-empty) and writes MANIFEST.json.
func (w *ShardWriter) Close() error {
	if w.closed {
		return nil
	}
	if err := w.EndShard(); err != nil {
		return err
	}
	w.closed = true
	js, err := json.MarshalIndent(w.man, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if err := os.WriteFile(filepath.Join(w.dir, manifestName), js, 0o644); err != nil {
		return fmt.Errorf("ingest: writing manifest: %w", err)
	}
	return nil
}

// Dataset is an opened sharded dataset: the parsed manifest plus one file
// handle per shard (handles are shared by concurrent pipeline readers via
// ReadAt, so an epoch never re-opens files).
type Dataset struct {
	Dir      string
	Manifest Manifest

	files []*os.File
}

// OpenDataset reads the manifest and opens every shard.
func OpenDataset(dir string) (*Dataset, error) {
	js, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("ingest: reading manifest: %w", err)
	}
	ds := &Dataset{Dir: dir}
	if err := json.Unmarshal(js, &ds.Manifest); err != nil {
		return nil, fmt.Errorf("ingest: parsing manifest: %w", err)
	}
	if ds.Manifest.Version != 1 {
		return nil, fmt.Errorf("ingest: manifest version %d, want 1", ds.Manifest.Version)
	}
	if len(ds.Manifest.Shards) == 0 {
		return nil, fmt.Errorf("ingest: dataset %s has no shards", dir)
	}
	for _, sh := range ds.Manifest.Shards {
		f, err := os.Open(filepath.Join(dir, sh.File))
		if err != nil {
			ds.Close()
			return nil, fmt.Errorf("ingest: opening shard: %w", err)
		}
		ds.files = append(ds.files, f)
	}
	return ds, nil
}

// Close releases the shard file handles.
func (ds *Dataset) Close() error {
	var first error
	for _, f := range ds.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	ds.files = nil
	return first
}

// Examples returns the manifest's total example count.
func (m *Manifest) Examples() int {
	n := 0
	for _, sh := range m.Shards {
		n += sh.Examples
	}
	return n
}

// Examples returns the dataset's total example count.
func (ds *Dataset) Examples() int { return ds.Manifest.Examples() }

// Bytes returns the dataset's total on-disk size.
func (ds *Dataset) Bytes() int64 {
	var b int64
	for _, sh := range ds.Manifest.Shards {
		b += sh.Bytes
	}
	return b
}

// Config reconstructs a model-config skeleton (feature space only; MLP
// stacks and interaction are the trainer's choice) from the manifest.
func (ds *Dataset) Config() core.Config {
	cfg := core.Config{Name: filepath.Base(ds.Dir), DenseFeatures: ds.Manifest.DenseFeatures}
	for _, s := range ds.Manifest.Sparse {
		cfg.Sparse = append(cfg.Sparse, core.SparseFeature{
			Name: s.Name, HashSize: s.HashSize, MeanPooled: s.MeanPooled, MaxPooled: s.MaxPooled,
		})
	}
	return cfg
}

// CompatibleWith checks that a model config can train from this dataset:
// same dense width and per-feature hash sizes.
func (ds *Dataset) CompatibleWith(cfg core.Config) error {
	if cfg.DenseFeatures != ds.Manifest.DenseFeatures {
		return fmt.Errorf("ingest: dataset has %d dense features, model wants %d",
			ds.Manifest.DenseFeatures, cfg.DenseFeatures)
	}
	if cfg.NumSparse() != len(ds.Manifest.Sparse) {
		return fmt.Errorf("ingest: dataset has %d sparse features, model wants %d",
			len(ds.Manifest.Sparse), cfg.NumSparse())
	}
	for i, s := range cfg.Sparse {
		if s.HashSize != ds.Manifest.Sparse[i].HashSize {
			return fmt.Errorf("ingest: feature %d hash size %d, model wants %d",
				i, ds.Manifest.Sparse[i].HashSize, s.HashSize)
		}
	}
	return nil
}

// block is one decoded shard resident in slab storage. Blocks recycle
// through the pipeline's free list; the assembler copies examples out at
// admission and returns the block immediately.
type block struct {
	n      int       // examples
	labels []byte    // n
	dense  []float32 // n × denseFeatures
	// Per sparse feature, flat indices plus n+1 offsets.
	featIdx [][]int32
	featOff [][]int32
	raw     []byte // reusable shard read buffer
}

// growI32 grows (without shrinking) an int32 slab.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// decodeShard parses a raw shard image into blk, reusing its slabs. It
// validates the header against the manifest schema and bounds-checks
// index counts against the buffer, not each index against the hash space
// — the assembler builds Bags whose consumers validate at the boundary.
func decodeShard(raw []byte, man *Manifest, blk *block) error {
	if len(raw) < shardHeader {
		return fmt.Errorf("ingest: shard truncated (%d bytes)", len(raw))
	}
	if binary.LittleEndian.Uint32(raw) != shardMagic {
		return fmt.Errorf("ingest: bad shard magic %#x", binary.LittleEndian.Uint32(raw))
	}
	dense := int(binary.LittleEndian.Uint32(raw[4:]))
	sparse := int(binary.LittleEndian.Uint32(raw[8:]))
	count := int(binary.LittleEndian.Uint32(raw[12:]))
	if dense != man.DenseFeatures || sparse != len(man.Sparse) {
		return fmt.Errorf("ingest: shard schema %dd/%ds, manifest %dd/%ds",
			dense, sparse, man.DenseFeatures, len(man.Sparse))
	}
	// Bound count before sizing any slab by it: a corrupt header must
	// not turn into a multi-gigabyte allocation.
	if total := man.Examples(); count > total {
		return fmt.Errorf("ingest: shard header claims %d examples, manifest holds %d", count, total)
	}
	minRecord := 1 + 4*dense + 2*sparse
	if fit := (len(raw) - shardHeader) / minRecord; count > fit {
		return fmt.Errorf("ingest: shard header claims %d examples, %d bytes hold at most %d",
			count, len(raw)-shardHeader, fit)
	}

	blk.n = count
	if cap(blk.labels) < count {
		blk.labels = make([]byte, count)
	}
	blk.labels = blk.labels[:count]
	need := count * dense
	if cap(blk.dense) < need {
		blk.dense = make([]float32, need)
	}
	blk.dense = blk.dense[:need]
	if len(blk.featIdx) != sparse {
		blk.featIdx = make([][]int32, sparse)
		blk.featOff = make([][]int32, sparse)
	}
	for f := 0; f < sparse; f++ {
		blk.featIdx[f] = blk.featIdx[f][:0]
		blk.featOff[f] = growI32(blk.featOff[f], count+1)
		blk.featOff[f][0] = 0
	}

	p := shardHeader
	for i := 0; i < count; i++ {
		if p >= len(raw) {
			return fmt.Errorf("ingest: shard truncated at example %d", i)
		}
		blk.labels[i] = raw[p]
		p++
		if p+4*dense > len(raw) {
			return fmt.Errorf("ingest: shard truncated in dense block of example %d", i)
		}
		for j := 0; j < dense; j++ {
			blk.dense[i*dense+j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[p:]))
			p += 4
		}
		for f := 0; f < sparse; f++ {
			if p+2 > len(raw) {
				return fmt.Errorf("ingest: shard truncated in feature %d of example %d", f, i)
			}
			n := int(binary.LittleEndian.Uint16(raw[p:]))
			p += 2
			if p+4*n > len(raw) {
				return fmt.Errorf("ingest: shard truncated in indices of example %d", i)
			}
			for k := 0; k < n; k++ {
				blk.featIdx[f] = append(blk.featIdx[f], int32(binary.LittleEndian.Uint32(raw[p:])))
				p += 4
			}
			blk.featOff[f][i+1] = int32(len(blk.featIdx[f]))
		}
	}
	if p != len(raw) {
		return fmt.Errorf("ingest: %d trailing bytes after %d examples", len(raw)-p, count)
	}
	return nil
}
