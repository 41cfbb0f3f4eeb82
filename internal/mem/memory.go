package mem

// Memory is the flat functional backing store for the simulated GPU's
// global/local address space. It stores bytes in demand-allocated pages so
// sparse multi-megabyte footprints stay cheap. Functional state is
// separate from timing: execution units read and write Memory at issue
// time, while the timing model decides when results become architecturally
// visible to the pipeline.
//
// A Memory belongs to one device and is used from that device's goroutine
// only: even a read writes the last-page memo.
type Memory struct {
	pages map[uint64]*page
	// last is the page most recently found or allocated and lastPN its
	// number: a warp's lanes touch neighbouring words, so most lookups
	// skip the map. Nil until a page exists; a miss leaves it alone.
	last   *page
	lastPN uint64
}

const pageShift = 12 // 4 KiB pages
const pageSize = 1 << pageShift

type page struct {
	data [pageSize]byte
}

// NewMemory returns an empty memory; unwritten bytes read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64, alloc bool) *page {
	pn := addr >> pageShift
	if m.last != nil && m.lastPN == pn {
		return m.last
	}
	p := m.pages[pn]
	if p == nil {
		if !alloc {
			return nil
		}
		p = &page{}
		m.pages[pn] = p
	}
	m.last, m.lastPN = p, pn
	return p
}

// Load8 reads one byte.
func (m *Memory) Load8(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p.data[addr&(pageSize-1)]
}

// Store8 writes one byte.
func (m *Memory) Store8(addr uint64, v byte) {
	p := m.pageFor(addr, true)
	p.data[addr&(pageSize-1)] = v
}

// Load32 reads a little-endian 32-bit word. The word may straddle a page.
func (m *Memory) Load32(addr uint64) uint32 {
	// Fast path: word entirely within one page.
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		b := p.data[off : off+4]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		v |= uint32(m.Load8(addr+i)) << (8 * i)
	}
	return v
}

// Store32 writes a little-endian 32-bit word.
func (m *Memory) Store32(addr uint64, v uint32) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 {
		p := m.pageFor(addr, true)
		b := p.data[off : off+4]
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
		return
	}
	for i := uint64(0); i < 4; i++ {
		m.Store8(addr+i, byte(v>>(8*i)))
	}
}

// Store32Slice writes consecutive 32-bit words starting at addr.
func (m *Memory) Store32Slice(addr uint64, vals []uint32) {
	for i, v := range vals {
		m.Store32(addr+uint64(i)*4, v)
	}
}

// Footprint returns the number of bytes in allocated pages (an upper bound
// on the touched footprint, rounded to page granularity).
func (m *Memory) Footprint() uint64 {
	return uint64(len(m.pages)) * pageSize
}
