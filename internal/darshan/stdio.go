package darshan

import (
	"darshanldms/internal/simfs"
)

// StdioFile is the instrumented STDIO-module wrapper for buffered small-op
// workloads (fopen/fread/fwrite/fgets). It is macro-stepped: op durations
// come from the file-system estimator and accumulate on the rank's VClock,
// so workloads with millions of tiny calls (HMMER) simulate cheaply while
// every call still gets a distinct absolute timestamp and event.
//
// The Ctx must have been created with a VClock.
type StdioFile struct {
	rt     *Runtime
	ctx    *Ctx
	fs     *simfs.FileSystem
	path   string
	offset int64
	open   bool
}

// OpenStdio opens path in the STDIO module (fopen).
func OpenStdio(rt *Runtime, fs *simfs.FileSystem, ctx *Ctx, path string) *StdioFile {
	f := &StdioFile{rt: rt, ctx: ctx, fs: fs, path: path}
	start := ctx.Now()
	d := fs.EstimateOp(simfs.OpOpen, 0, start)
	ctx.Charge(d)
	rt.observe(ctx, ModSTDIO, OpOpen, path, 0, 0, start, ctx.Now(), nil)
	f.open = true
	return f
}

// Read consumes n bytes at the current position (fread/fgets).
func (f *StdioFile) Read(n int64) int64 {
	start := f.ctx.Now()
	d := f.fs.EstimateOp(simfs.OpRead, n, start)
	f.ctx.Charge(d)
	f.rt.observe(f.ctx, ModSTDIO, OpRead, f.path, f.offset, n, start, f.ctx.Now(), nil)
	f.offset += n
	return n
}

// Write appends n bytes at the current position (fwrite/fprintf).
func (f *StdioFile) Write(n int64) int64 {
	start := f.ctx.Now()
	d := f.fs.EstimateOp(simfs.OpWrite, n, start)
	f.ctx.Charge(d)
	f.rt.observe(f.ctx, ModSTDIO, OpWrite, f.path, f.offset, n, start, f.ctx.Now(), nil)
	f.offset += n
	return n
}

// Flush forces buffered data out (fflush).
func (f *StdioFile) Flush() {
	start := f.ctx.Now()
	d := f.fs.EstimateOp(simfs.OpFlush, 0, start)
	f.ctx.Charge(d)
	f.rt.observe(f.ctx, ModSTDIO, OpFlush, f.path, 0, 0, start, f.ctx.Now(), nil)
}

// Close closes the stream (fclose).
func (f *StdioFile) Close() {
	if !f.open {
		return
	}
	f.open = false
	start := f.ctx.Now()
	d := f.fs.EstimateOp(simfs.OpClose, 0, start)
	f.ctx.Charge(d)
	f.rt.observe(f.ctx, ModSTDIO, OpClose, f.path, 0, 0, start, f.ctx.Now(), nil)
}

// Offset returns the current stream position.
func (f *StdioFile) Offset() int64 { return f.offset }
