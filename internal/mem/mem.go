// Package mem models host memory as seen by the communication stacks: user
// buffers with real backing bytes, the cost of copying between them (with a
// cache/TLB warm-set model), page-granular memory registration (pinning),
// and the pin-down (registration) cache used by MPI implementations.
//
// Two of the paper's experiments are driven entirely by this package's cost
// models: Figure 6 (buffer re-use) exercises the registration cache and the
// warm-set model, and the rendezvous costs in Figures 4 and 5 come from
// registration pricing.
package mem

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// Memory is one host's memory system.
type Memory struct {
	eng      *sim.Engine
	name     string
	nextAddr uint64

	// PageSize is the virtual-memory page size (4 KB on the testbed).
	PageSize int
	// CopyRate is warm memcpy bandwidth.
	CopyRate sim.Rate
	// TLBMissCost is the fixed cost of touching a page outside the warm set.
	TLBMissCost sim.Time
	// ColdFillRate prices the extra per-byte cost of accessing cold data
	// (cache-line fills from DRAM): penalty = bytes / ColdFillRate.
	ColdFillRate sim.Rate
	// WarmPages bounds the number of pages the warm set holds (a stand-in
	// for TLB reach and cache capacity). Zero disables the cold-touch model.
	WarmPages int

	warm     map[uint64]int // page -> index into warmLRU
	warmLRU  []uint64       // least recent first
	coldHits int64
}

// NewMemory returns a memory with the testbed's default cost model.
func NewMemory(eng *sim.Engine, name string) *Memory {
	return &Memory{
		eng:          eng,
		name:         name,
		nextAddr:     0x1000,
		PageSize:     4096,
		CopyRate:     2 * sim.GBps,
		TLBMissCost:  sim.Nanos(150),
		ColdFillRate: 1.7 * sim.GBps,
		WarmPages:    48,
		warm:         make(map[uint64]int),
	}
}

// Buffer is a contiguous user allocation with real backing bytes.
type Buffer struct {
	mem  *Memory
	addr uint64
	data []byte
}

// Alloc returns a fresh page-aligned buffer of n bytes. All its pages start
// cold.
func (m *Memory) Alloc(n int) *Buffer {
	if n <= 0 {
		panic(fmt.Sprintf("mem %s: alloc %d", m.name, n))
	}
	ps := uint64(m.PageSize)
	addr := (m.nextAddr + ps - 1) / ps * ps
	m.nextAddr = addr + uint64(n)
	return &Buffer{mem: m, addr: addr, data: make([]byte, n)}
}

// Addr returns the buffer's (simulated) virtual address.
func (b *Buffer) Addr() uint64 { return b.addr }

// Len returns the buffer length.
func (b *Buffer) Len() int { return len(b.data) }

// Bytes returns the full backing slice.
func (b *Buffer) Bytes() []byte { return b.data }

// Slice returns the backing bytes for [off, off+n).
func (b *Buffer) Slice(off, n int) []byte {
	if off < 0 || n < 0 || off+n > len(b.data) {
		panic(fmt.Sprintf("mem: slice [%d,%d) of %d-byte buffer", off, off+n, len(b.data)))
	}
	return b.data[off : off+n]
}

// Memory returns the owning memory.
func (b *Buffer) Memory() *Memory { return b.mem }

// Pages returns the number of pages spanned by [off, off+n).
func (b *Buffer) Pages(off, n int) int {
	if n <= 0 {
		return 0
	}
	ps := uint64(b.mem.PageSize)
	first := (b.addr + uint64(off)) / ps
	last := (b.addr + uint64(off+n) - 1) / ps
	return int(last - first + 1)
}

// touch brings page pg into the warm set and reports whether it was cold.
func (m *Memory) touch(pg uint64) bool {
	if m.WarmPages <= 0 {
		return false
	}
	if _, ok := m.warm[pg]; ok {
		// Move to most-recent position.
		m.promote(pg)
		return false
	}
	m.coldHits++
	if len(m.warmLRU) >= m.WarmPages {
		old := m.warmLRU[0]
		m.warmLRU = m.warmLRU[1:]
		delete(m.warm, old)
	}
	m.warm[pg] = len(m.warmLRU)
	m.warmLRU = append(m.warmLRU, pg)
	return true
}

func (m *Memory) promote(pg uint64) {
	// Linear removal is fine: warm sets are tens of entries.
	for i, p := range m.warmLRU {
		if p == pg {
			m.warmLRU = append(m.warmLRU[:i], m.warmLRU[i+1:]...)
			break
		}
	}
	m.warm[pg] = len(m.warmLRU)
	m.warmLRU = append(m.warmLRU, pg)
}

// TouchCost returns the cold-touch penalty for accessing [off, off+n) of b
// with the CPU, updating warm-set state: a TLB-miss charge per cold page
// plus a cache-fill charge for the bytes that live in cold pages.
func (m *Memory) TouchCost(b *Buffer, off, n int) sim.Time {
	if n <= 0 || m.WarmPages <= 0 {
		return 0
	}
	ps := uint64(m.PageSize)
	first := (b.addr + uint64(off)) / ps
	last := (b.addr + uint64(off+n) - 1) / ps
	var cost sim.Time
	for pg := first; pg <= last; pg++ {
		if !m.touch(pg) {
			continue
		}
		// Bytes of the access that fall inside this page.
		start := b.addr + uint64(off)
		end := start + uint64(n)
		pstart := pg * ps
		pend := pstart + ps
		if start > pstart {
			pstart = start
		}
		if end < pend {
			pend = end
		}
		cost += m.TLBMissCost + m.ColdFillRate.TxTime(int(pend-pstart))
	}
	return cost
}

// ColdTouches returns the number of cold page touches so far.
func (m *Memory) ColdTouches() int64 { return m.coldHits }

// CopyCost returns the CPU time to copy n bytes from src to dst, including
// cold-touch penalties on both, and updates warm-set state. It does not move
// any bytes and does not sleep.
func (m *Memory) CopyCost(dst *Buffer, doff int, src *Buffer, soff int, n int) sim.Time {
	cost := m.CopyRate.TxTime(n)
	cost += m.TouchCost(src, soff, n)
	cost += m.TouchCost(dst, doff, n)
	return cost
}

// Copy blocks p for the copy cost and moves the bytes.
func (m *Memory) Copy(p *sim.Proc, dst *Buffer, doff int, src *Buffer, soff int, n int) {
	p.Sleep(m.CopyCost(dst, doff, src, soff, n))
	copy(dst.Slice(doff, n), src.Slice(soff, n))
}

// fillPeriod is the period of the Fill pattern: byte i holds
// seed + byte(i*131), which depends on i mod 256 only.
const fillPeriod = 256

// Fill writes a deterministic pattern derived from seed into the buffer;
// used by tests and benchmarks to verify end-to-end data integrity. It
// writes one period byte by byte, then doubles the filled prefix with copy,
// so large buffers fill at memmove speed.
func (b *Buffer) Fill(seed byte) {
	d := b.data
	n := min(len(d), fillPeriod)
	for i := 0; i < n; i++ {
		d[i] = seed + byte(i*131)
	}
	for done := n; done < len(d); done *= 2 {
		copy(d[done:], d[:done])
	}
}

// Equal reports whether [off, off+n) matches the same range pattern of a
// Fill(seed) buffer. It builds the pattern's period once, starting at
// off's phase, and compares the range against it chunk by chunk.
func (b *Buffer) Equal(seed byte, off, n int) bool {
	if n <= 0 {
		return true
	}
	var pat [fillPeriod]byte
	p := pat[:min(n, fillPeriod)]
	for k := range p {
		p[k] = seed + byte((off+k)*131)
	}
	for d := b.data[off : off+n]; len(d) > 0; {
		c := min(len(d), len(p))
		if !bytes.Equal(d[:c], p[:c]) {
			return false
		}
		d = d[c:]
	}
	return true
}
