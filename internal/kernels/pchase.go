package kernels

import (
	"fmt"

	"gpulat/internal/isa"
	"gpulat/internal/mem"
	"gpulat/internal/sm"
)

// PChaseConfig parameterizes the pointer-chase microbenchmark of the
// paper's static latency analysis: a single thread chases pointers
// through a ring while stride and footprint vary; per-access latency
// reveals which level of the hierarchy serves the loads.
type PChaseConfig struct {
	// Base is the ring's base address (must fit in 32 bits).
	Base uint64
	// StrideBytes separates consecutive ring elements.
	StrideBytes uint32
	// FootprintBytes is the total span touched; the ring has
	// Footprint/Stride elements.
	FootprintBytes uint32
	// Accesses is the number of timed dependent loads.
	Accesses int
	// Local switches the chase to the thread-local memory space (used
	// to measure Kepler's local-only L1 as in Table I).
	Local bool
}

func (c PChaseConfig) validate() error {
	switch {
	case c.Base == 0 || c.Base+uint64(c.FootprintBytes) >= 1<<32:
		return fmt.Errorf("pchase: ring must sit in (0, 2^32) address range")
	case c.StrideBytes < 4:
		return fmt.Errorf("pchase: stride must be >= 4 bytes")
	case c.FootprintBytes < c.StrideBytes:
		return fmt.Errorf("pchase: footprint smaller than stride")
	case c.Accesses <= 0:
		return fmt.Errorf("pchase: accesses must be positive")
	}
	return nil
}

// PChase builds the pointer-chase workload. The kernel runs one thread:
//
//	r1 = base
//	repeat param[1] times: r1 = global[r1]
//	global[sinkAddr] = r1
//
// The ring is chased once untimed (warmup lap) by running the kernel
// twice, or by sizing Accesses to cover multiple laps; the harness in
// internal/core handles warmup policy.
func PChase(cfg PChaseConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := int(cfg.FootprintBytes / cfg.StrideBytes)
	sink := cfg.Base + uint64(cfg.FootprintBytes) + 4096

	const (
		rPtr  = isa.Reg(1)
		rCnt  = isa.Reg(2)
		rSink = isa.Reg(3)
	)
	b := isa.NewBuilder("pchase")
	b.Param(rPtr, 0). // current pointer
				Param(rCnt, 1) // access count
	b.Label("loop")
	if cfg.Local {
		b.Ldl(rPtr, rPtr, 0)
	} else {
		b.Ldg(rPtr, rPtr, 0)
	}
	b.IAddI(rCnt, rCnt, -1).
		ISetpI(0, isa.CmpNE, rCnt, 0).
		P(0).Bra("loop").
		Param(rSink, 2).
		Stg(rSink, 0, rPtr).
		Exit()

	k := &sm.Kernel{
		Program:  b.Build(),
		Params:   []uint32{uint32(cfg.Base), uint32(cfg.Accesses), uint32(sink)},
		BlockDim: 1,
		GridDim:  1,
	}
	if cfg.Local {
		// The local chase interprets ring addresses as local offsets;
		// with a single thread the interleaved mapping is identity
		// offset*1, so the ring values stay valid. LocalBase 0 keeps
		// local offsets equal to global addresses.
		k.LocalBase = 0
		k.LocalBytesPerThread = cfg.FootprintBytes + uint32(cfg.Base)
	}

	// A run of Accesses loads reads the ring's first min(n, Accesses)
	// elements; the rest are never touched and stay unwritten.
	setup := func(m *mem.Memory) {
		for i := 0; i < min(n, cfg.Accesses); i++ {
			cur := cfg.Base + uint64(i)*uint64(cfg.StrideBytes)
			next := cfg.Base + uint64((i+1)%n)*uint64(cfg.StrideBytes)
			m.Store32(cur, uint32(next))
		}
	}
	verify := func(m *mem.Memory) error {
		got := m.Load32(sink)
		want := cfg.Base + uint64((cfg.Accesses%n+n)%n)*uint64(cfg.StrideBytes)
		if uint64(got) != want {
			return fmt.Errorf("pchase: final pointer %#x, want %#x", got, want)
		}
		return nil
	}
	return &Workload{
		Name:   fmt.Sprintf("pchase/stride=%d/footprint=%d", cfg.StrideBytes, cfg.FootprintBytes),
		Kernel: k,
		Setup:  setup,
		Verify: verify,
	}, nil
}
