package faults

import (
	"io"
	"net"
	"sync"
	"time"
)

// TCPProxy sits between a real transport client and a real daemon and
// injects faults on the wire: kill every active connection (the "TCP
// connection kill" fault), black-hole new connections (a link partition),
// or delay each copied chunk (a latency spike). Unlike the simulated Link
// it operates in wall-clock time — it exists to exercise the reconnect
// path of real daemons (cmd/ldmsd, ldms.Uplink), not to be
// deterministic.
type TCPProxy struct {
	ln       net.Listener
	upstream string

	mu          sync.Mutex
	conns       map[net.Conn]struct{} // accepted client conns
	partitioned bool
	delay       time.Duration
	accepted    uint64
	killed      uint64
	closed      bool
	wg          sync.WaitGroup
}

// NewTCPProxy listens on addr (e.g. "127.0.0.1:0") and forwards each
// accepted connection to upstream.
func NewTCPProxy(addr, upstream string) (*TCPProxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &TCPProxy{ln: ln, upstream: upstream, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (point clients here).
func (p *TCPProxy) Addr() string { return p.ln.Addr().String() }

// Accepted returns how many connections the proxy has accepted.
func (p *TCPProxy) Accepted() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

func (p *TCPProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed || p.partitioned {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.accepted++
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.pipe(conn)
	}
}

// pipe shuttles bytes client<->upstream until either side dies.
func (p *TCPProxy) pipe(client net.Conn) {
	defer p.wg.Done()
	defer p.drop(client)
	up, err := net.DialTimeout("tcp", p.upstream, 2*time.Second)
	if err != nil {
		return
	}
	defer up.Close()
	done := make(chan struct{}, 2)
	copyDir := func(dst, src net.Conn) {
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if d := p.currentDelay(); d > 0 {
					time.Sleep(d)
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		// Unblock the opposite direction.
		dst.Close()
		src.Close()
		done <- struct{}{}
	}
	go copyDir(up, client)
	copyDir(client, up)
	<-done
}

func (p *TCPProxy) currentDelay() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delay
}

func (p *TCPProxy) drop(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

// KillConnections closes every active proxied connection; clients see a
// reset mid-stream. New connections are still accepted.
func (p *TCPProxy) KillConnections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.conns)
	p.killed += uint64(n)
	for c := range p.conns {
		c.Close()
	}
	return n
}

// SetPartitioned black-holes the proxy: active connections are killed and
// new ones are refused until the partition heals.
func (p *TCPProxy) SetPartitioned(v bool) {
	p.mu.Lock()
	p.partitioned = v
	if v {
		for c := range p.conns {
			c.Close()
		}
	}
	p.mu.Unlock()
}

// SetDelay injects d of extra latency into every copied chunk (0 clears).
func (p *TCPProxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// Close stops the proxy and all connections.
func (p *TCPProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

// Interface check: the proxy never reads frames, only bytes.
var _ io.Closer = (*TCPProxy)(nil)
