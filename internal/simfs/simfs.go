package simfs

import (
	"errors"
	"fmt"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
)

// Kind selects the file-system model.
type Kind string

// The two file systems on the evaluation machine.
const (
	NFS    Kind = "NFS"
	Lustre Kind = "Lustre"
)

// OpKind identifies an I/O operation for the small-op estimator.
type OpKind int

// Operations the estimator understands.
const (
	OpRead OpKind = iota
	OpWrite
	OpOpen
	OpClose
	OpFlush
)

// Config parameterizes a file system instance. Zero fields are filled with
// the defaults of DefaultNFS/DefaultLustre.
type Config struct {
	Kind  Kind
	Mount string // path prefix, e.g. "/nscratch" or "/lscratch"

	// NFS server model: Slots concurrent RPC streams, each at SlotBandwidth
	// bytes/s (aggregate = Slots * SlotBandwidth).
	Slots         int
	SlotBandwidth float64

	// Lustre model: OSTs object storage targets, each with OSTSlots
	// concurrent streams of OSTSlotBandwidth bytes/s. Files are striped
	// StripeSize-wide across StripeCount OSTs.
	OSTs             int
	OSTSlots         int
	OSTSlotBandwidth float64
	StripeSize       int64
	StripeCount      int

	// MetaLatency is the base cost of open/close/stat; SmallOpLatency is the
	// fixed per-call overhead of read/write RPCs.
	MetaLatency    time.Duration
	SmallOpLatency time.Duration

	// Client-side cache: reads of data this rank wrote go at ClientCacheBW
	// as long as the rank's footprint in the file is below ClientCacheLimit.
	ClientCacheBW    float64
	ClientCacheLimit int64

	// ShortWriteBase is the probability (scaled by load) that a large write
	// returns short, forcing the application to retry — the mechanism behind
	// the paper's run-to-run variation in operation counts (Fig 5).
	ShortWriteBase float64
	// OpenRetryBase is the probability that an open fails transiently
	// (ESTALE-style) and must be retried (Fig 6 per-node variation).
	OpenRetryBase float64

	Load *LoadProfile
}

// DefaultNFS returns the calibrated NFS model: ~80 MB/s aggregate across 32
// RPC slots, expensive metadata and small synchronous writes.
func DefaultNFS() Config {
	return Config{
		Kind:             NFS,
		Mount:            "/nscratch",
		Slots:            32,
		SlotBandwidth:    2.5e6, // 2.5 MB/s per slot -> 80 MB/s aggregate
		MetaLatency:      1200 * time.Microsecond,
		SmallOpLatency:   350 * time.Microsecond,
		ClientCacheBW:    3e9,
		ClientCacheLimit: 512 << 20,
		ShortWriteBase:   0.04,
		OpenRetryBase:    0.010,
		Load:             NominalLoad(),
	}
}

// DefaultLustre returns the calibrated Lustre model: 8 OSTs x 4 slots x
// 15 MB/s (480 MB/s aligned aggregate, 120 MB/s under shared-file extent
// lock serialization), 4 MiB stripes, cheap small ops.
func DefaultLustre() Config {
	return Config{
		Kind:             Lustre,
		Mount:            "/lscratch",
		OSTs:             8,
		OSTSlots:         4,
		OSTSlotBandwidth: 15e6,
		StripeSize:       4 << 20,
		StripeCount:      8,
		MetaLatency:      300 * time.Microsecond,
		SmallOpLatency:   60 * time.Microsecond,
		ClientCacheBW:    3e9,
		ClientCacheLimit: 512 << 20,
		ShortWriteBase:   0.015,
		OpenRetryBase:    0.02,
		Load:             NominalLoad(),
	}
}

// FileSystem is a simulated file system bound to an engine.
type FileSystem struct {
	cfg     Config
	e       *sim.Engine
	servers []*sim.Resource // NFS: one entry; Lustre: one per OST
	meta    *sim.Resource   // NFS server metadata path / Lustre MDS
	files   map[string]*file
	noise   *rng.Stream
	nextID  int
}

type file struct {
	path       string
	size       int64
	stripeBase int
	writers    int             // open write handles
	locks      []*sim.Resource // Lustre per-OST extent-lock tokens
	rankFoot   map[int]int64   // bytes written per rank (client-cache model)
}

// ErrStale is the transient open failure applications retry on.
var ErrStale = errors.New("simfs: stale file handle")

// New creates a file system on e; noise drives all stochastic behaviour.
func New(e *sim.Engine, cfg Config, noise *rng.Stream) *FileSystem {
	def := DefaultNFS()
	if cfg.Kind == Lustre {
		def = DefaultLustre()
	}
	if cfg.Mount == "" {
		cfg.Mount = def.Mount
	}
	if cfg.Slots == 0 {
		cfg.Slots = def.Slots
	}
	if cfg.SlotBandwidth == 0 {
		cfg.SlotBandwidth = def.SlotBandwidth
	}
	if cfg.OSTs == 0 {
		cfg.OSTs = def.OSTs
	}
	if cfg.OSTSlots == 0 {
		cfg.OSTSlots = def.OSTSlots
	}
	if cfg.OSTSlotBandwidth == 0 {
		cfg.OSTSlotBandwidth = def.OSTSlotBandwidth
	}
	if cfg.StripeSize == 0 {
		cfg.StripeSize = def.StripeSize
	}
	if cfg.StripeCount == 0 {
		cfg.StripeCount = def.StripeCount
	}
	if cfg.MetaLatency == 0 {
		cfg.MetaLatency = def.MetaLatency
	}
	if cfg.SmallOpLatency == 0 {
		cfg.SmallOpLatency = def.SmallOpLatency
	}
	if cfg.ClientCacheBW == 0 {
		cfg.ClientCacheBW = def.ClientCacheBW
	}
	if cfg.ClientCacheLimit == 0 {
		cfg.ClientCacheLimit = def.ClientCacheLimit
	}
	if cfg.ShortWriteBase == 0 {
		cfg.ShortWriteBase = def.ShortWriteBase
	}
	if cfg.OpenRetryBase == 0 {
		cfg.OpenRetryBase = def.OpenRetryBase
	}
	if cfg.Load == nil {
		cfg.Load = NominalLoad()
	}
	fs := &FileSystem{cfg: cfg, e: e, files: map[string]*file{}, noise: noise}
	switch cfg.Kind {
	case NFS:
		fs.servers = []*sim.Resource{sim.NewResource(e, string(cfg.Kind)+"/server", cfg.Slots)}
		fs.meta = sim.NewResource(e, string(cfg.Kind)+"/meta", 8)
	case Lustre:
		fs.servers = make([]*sim.Resource, cfg.OSTs)
		for i := range fs.servers {
			fs.servers[i] = sim.NewResource(e, fmt.Sprintf("Lustre/ost%d", i), cfg.OSTSlots)
		}
		fs.meta = sim.NewResource(e, "Lustre/mds", 16)
	default:
		panic("simfs: unknown kind " + string(cfg.Kind))
	}
	return fs
}

// Kind returns the file-system kind.
func (fs *FileSystem) Kind() Kind { return fs.cfg.Kind }

// Mount returns the mount prefix used in file paths.
func (fs *FileSystem) Mount() string { return fs.cfg.Mount }

// Config returns the effective configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// Load returns the load profile (mutable: harnesses install congestion
// events on it before a run).
func (fs *FileSystem) Load() *LoadProfile { return fs.cfg.Load }

// jitter returns a multiplicative lognormal noise factor around 1.
func (fs *FileSystem) jitter() float64 {
	return fs.noise.LogNormal(0, 0.08)
}

func (fs *FileSystem) loadNow() float64 {
	return fs.cfg.Load.FactorAt(fs.e.Now())
}

// Handle is an open file descriptor.
type Handle struct {
	fs      *FileSystem
	f       *file
	rank    int
	wrote   bool
	aligned bool
	closed  bool
}

// Path returns the file's full path.
func (h *Handle) Path() string { return h.f.path }

// Size returns the file's current size.
func (h *Handle) Size() int64 { return h.f.size }

// SetAligned marks subsequent writes as stripe-aligned (set by the
// collective-I/O layer); aligned writes bypass Lustre extent-lock
// serialization.
func (h *Handle) SetAligned(v bool) { h.aligned = v }

// Open opens (creating if needed) the file at path on behalf of rank,
// blocking p for the metadata round trip. It can fail transiently with
// ErrStale under load; the caller (like a real application) must retry,
// and each attempt is a distinct I/O event for the characterization layer.
// The returned duration is the time the attempt took.
func (fs *FileSystem) Open(p *sim.Proc, rank int, path string, write bool) (*Handle, time.Duration, error) {
	start := fs.e.Now()
	d := time.Duration(float64(fs.cfg.MetaLatency) * fs.loadNow() * fs.jitter())
	fs.meta.Use(p, 1, d)
	elapsed := fs.e.Now() - start
	pFail := fs.cfg.OpenRetryBase * fs.loadNow()
	if pFail > 0.30 {
		pFail = 0.30
	}
	if fs.noise.Bool(pFail) {
		return nil, elapsed, ErrStale
	}
	f, ok := fs.files[path]
	if !ok {
		f = &file{
			path:       path,
			stripeBase: fs.nextID % maxInt(1, fs.cfg.OSTs),
			rankFoot:   map[int]int64{},
		}
		if fs.cfg.Kind == Lustre {
			f.locks = make([]*sim.Resource, fs.cfg.OSTs)
			for i := range f.locks {
				f.locks[i] = sim.NewResource(fs.e, "lock:"+path, 1)
			}
		}
		fs.nextID++
		fs.files[path] = f
	}
	if write {
		f.writers++
	}
	return &Handle{fs: fs, f: f, rank: rank, wrote: write}, elapsed, nil
}

// OpenRetry opens with retries on transient failure, invoking onAttempt for
// every attempt (so instrumentation sees each open event, as Darshan does).
func (fs *FileSystem) OpenRetry(p *sim.Proc, rank int, path string, write bool, onAttempt func(d time.Duration, err error)) *Handle {
	for {
		h, d, err := fs.Open(p, rank, path, write)
		if onAttempt != nil {
			onAttempt(d, err)
		}
		if err == nil {
			return h
		}
		p.Sleep(time.Duration(float64(fs.cfg.MetaLatency) * 2 * fs.jitter()))
	}
}

// Close releases the handle, blocking p for the metadata cost, and returns
// the elapsed time.
func (h *Handle) Close(p *sim.Proc) time.Duration {
	if h.closed {
		return 0
	}
	h.closed = true
	start := h.fs.e.Now()
	d := time.Duration(float64(h.fs.cfg.MetaLatency) * 0.5 * h.fs.loadNow() * h.fs.jitter())
	h.fs.meta.Use(p, 1, d)
	if h.wrote {
		h.f.writers--
	}
	return h.fs.e.Now() - start
}

// Flush models fsync: a metadata round trip plus server commit.
func (h *Handle) Flush(p *sim.Proc) time.Duration {
	start := h.fs.e.Now()
	d := time.Duration(float64(h.fs.cfg.MetaLatency) * 1.5 * h.fs.loadNow() * h.fs.jitter())
	h.fs.meta.Use(p, 1, d)
	return h.fs.e.Now() - start
}

// Result reports the outcome of one read/write call.
type Result struct {
	N int64         // bytes actually transferred (may be short for writes)
	D time.Duration // elapsed time of the call
}

// Write transfers up to n bytes at offset, blocking p while the servers
// service the request. Under load, large writes may return short (N < n);
// the application is expected to retry the remainder with another call —
// each call is one POSIX event.
func (h *Handle) Write(p *sim.Proc, offset, n int64) Result {
	if n <= 0 {
		return Result{}
	}
	start := h.fs.e.Now()
	load := h.fs.loadNow()
	// Short-write injection on large transfers.
	if n >= 4<<20 {
		pShort := h.fs.cfg.ShortWriteBase * load
		if pShort > 0.35 {
			pShort = 0.35
		}
		if h.fs.noise.Bool(pShort) {
			frac := 0.5 + 0.45*h.fs.noise.Float64()
			short := int64(float64(n) * frac)
			// Round to 4 KiB pages like a real short write.
			short &^= 4095
			if short > 0 && short < n {
				n = short
			}
		}
	}
	h.transfer(p, offset, n, true)
	h.f.rankFoot[h.rank] += n
	if end := offset + n; end > h.f.size {
		h.f.size = end
	}
	return Result{N: n, D: h.fs.e.Now() - start}
}

// Read transfers n bytes at offset. Reads of data this rank recently wrote
// are served from the client cache (unless a congestion event dropped
// caches), which is how the paper's read-back phases complete in tens of
// milliseconds per op while writes take tens of seconds (Fig 7).
func (h *Handle) Read(p *sim.Proc, offset, n int64) Result {
	if n <= 0 {
		return Result{}
	}
	start := h.fs.e.Now()
	if h.cachedRead(n) {
		d := time.Duration((20e-6 + float64(n)/h.fs.cfg.ClientCacheBW) * h.fs.jitter() * float64(time.Second))
		p.Sleep(d)
		return Result{N: n, D: h.fs.e.Now() - start}
	}
	h.transfer(p, offset, n, false)
	return Result{N: n, D: h.fs.e.Now() - start}
}

func (h *Handle) cachedRead(n int64) bool {
	if p := h.fs.cfg.Load.CacheMissProbAt(h.fs.e.Now()); p > 0 && h.fs.noise.Bool(p) {
		return false
	}
	foot := h.f.rankFoot[h.rank]
	return foot > 0 && foot <= h.fs.cfg.ClientCacheLimit
}

// transfer blocks p while the byte range is serviced, modelling contention
// through server/OST resources and (for unaligned shared-file writes on
// Lustre) per-OST extent locks.
func (h *Handle) transfer(p *sim.Proc, offset, n int64, isWrite bool) {
	fs := h.fs
	load := fs.loadNow()
	switch fs.cfg.Kind {
	case NFS:
		bw := fs.cfg.SlotBandwidth / load
		d := time.Duration((float64(fs.cfg.SmallOpLatency)/float64(time.Second) + float64(n)/bw) * fs.jitter() * float64(time.Second))
		fs.servers[0].Use(p, 1, d)
	case Lustre:
		chunks := h.stripeChunks(offset, n)
		if len(chunks) == 1 {
			h.lustreChunk(p, chunks[0], isWrite, load)
			return
		}
		// Parallel RPCs to multiple OSTs: fork-join.
		wg := sim.NewWaitGroup(fs.e)
		wg.Add(len(chunks))
		for _, c := range chunks {
			c := c
			fs.e.Spawn("lustre-rpc", func(cp *sim.Proc) {
				h.lustreChunk(cp, c, isWrite, load)
				wg.Done()
			})
		}
		wg.Wait(p)
	}
}

type stripeChunk struct {
	ost   int
	bytes int64
}

// stripeChunks splits [offset, offset+n) at stripe boundaries and assigns
// each piece to its OST, coalescing pieces that land on the same OST.
func (h *Handle) stripeChunks(offset, n int64) []stripeChunk {
	fs := h.fs
	ss := fs.cfg.StripeSize
	sc := fs.cfg.StripeCount
	if sc > fs.cfg.OSTs {
		sc = fs.cfg.OSTs
	}
	perOST := map[int]int64{}
	var order []int
	for n > 0 {
		stripeIdx := offset / ss
		within := offset % ss
		take := ss - within
		if take > n {
			take = n
		}
		ost := (h.f.stripeBase + int(stripeIdx%int64(sc))) % fs.cfg.OSTs
		if _, seen := perOST[ost]; !seen {
			order = append(order, ost)
		}
		perOST[ost] += take
		offset += take
		n -= take
	}
	out := make([]stripeChunk, 0, len(order))
	for _, ost := range order {
		out = append(out, stripeChunk{ost: ost, bytes: perOST[ost]})
	}
	return out
}

func (h *Handle) lustreChunk(p *sim.Proc, c stripeChunk, isWrite bool, load float64) {
	fs := h.fs
	bw := fs.cfg.OSTSlotBandwidth / load
	d := time.Duration((float64(fs.cfg.SmallOpLatency)/float64(time.Second) + float64(c.bytes)/bw) * fs.jitter() * float64(time.Second))
	// Concurrent unaligned writers to a shared file fight over extent locks:
	// only one of them may have the OST object's lock at a time.
	needLock := isWrite && !h.aligned && h.f.writers > 1
	if needLock {
		lock := h.f.locks[c.ost]
		lock.Acquire(p, 1)
		fs.servers[c.ost].Use(p, 1, d)
		lock.Release(1)
		return
	}
	fs.servers[c.ost].Use(p, 1, d)
}

// FileSize returns the size of path, or 0 if it does not exist.
func (fs *FileSystem) FileSize(path string) int64 {
	if f, ok := fs.files[path]; ok {
		return f.size
	}
	return 0
}

// Exists reports whether path exists.
func (fs *FileSystem) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// EstimateOp returns a modelled duration for a small client-buffered
// operation without touching the contended resources. Macro-stepped
// workload generators (HMMER's millions of tiny STDIO calls) use this and
// advance time in batches; the justification is that node-local buffered
// small I/O does not meaningfully queue at the server.
func (fs *FileSystem) EstimateOp(op OpKind, bytes int64, at time.Duration) time.Duration {
	load := fs.cfg.Load.FactorAt(at)
	var sec float64
	switch op {
	case OpOpen:
		sec = float64(fs.cfg.MetaLatency) / float64(time.Second) * load
	case OpClose:
		sec = float64(fs.cfg.MetaLatency) / float64(time.Second) * 0.5 * load
	case OpFlush:
		sec = float64(fs.cfg.MetaLatency) / float64(time.Second) * 1.5 * load
	case OpWrite:
		// Small synchronous-ish writes pay the per-op RPC latency.
		sec = (float64(fs.cfg.SmallOpLatency)/float64(time.Second) + float64(bytes)/(fs.cfg.SlotBandwidthOrOST()/load)) * load
	case OpRead:
		// Buffered reads mostly hit readahead; charge a fraction of the RPC.
		sec = float64(fs.cfg.SmallOpLatency)/float64(time.Second)*0.12*load + float64(bytes)/fs.cfg.ClientCacheBW
	}
	return time.Duration(sec * fs.jitter() * float64(time.Second))
}

// SlotBandwidthOrOST returns the per-stream bandwidth of the configured
// kind, used by the estimator.
func (c Config) SlotBandwidthOrOST() float64 {
	if c.Kind == Lustre {
		return c.OSTSlotBandwidth
	}
	return c.SlotBandwidth
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
