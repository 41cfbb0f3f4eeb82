package gpu

import (
	"fmt"
	"strconv"

	"gpulat/internal/cache"
	"gpulat/internal/dram"
	"gpulat/internal/icnt"
	"gpulat/internal/mempart"
	"gpulat/internal/metrics"
	"gpulat/internal/sched"
	"gpulat/internal/sm"
)

// Counters is every counter of a run, read once from a device: the
// -trace-sim families (the tagged fields of Stats, each WakeStat and each
// KernelStat), and each component's Stats, in ID order, which no family
// exports. An absent L1 or L2 reads zero.
type Counters struct {
	Stats
	Wakes   []WakeStat
	Kernels []KernelStat

	SMs        []sm.Stats      `metric:"-"`
	L1s        []cache.Stats   `metric:"-"`
	Partitions []mempart.Stats `metric:"-"`
	L2s        []cache.Stats   `metric:"-"`
	DRAMs      []dram.Stats    `metric:"-"`
	ReqNet     icnt.Stats      `metric:"-"`
	ReplyNet   icnt.Stats      `metric:"-"`
}

// KernelStat is one launched kernel's dispatch counters, labelled by its
// ID and stream.
type KernelStat struct {
	ID     string `metric:"kernel"`
	Stream string `metric:"stream"`
	sched.KernelStats
}

// Counters reads the device's counters; a released device returns the
// value Release read.
func (g *GPU) Counters() Counters {
	if g.released != nil {
		return *g.released
	}
	c := Counters{Stats: g.Stats(), Wakes: g.WakeStats(), ReqNet: g.reqNet.Stats(), ReplyNet: g.replyNet.Stats()}
	for _, k := range g.disp.Kernels() {
		c.Kernels = append(c.Kernels, KernelStat{strconv.Itoa(k.ID), k.Stream, k.Stats()})
	}
	for _, s := range g.sms {
		c.SMs = append(c.SMs, s.Stats())
		c.L1s = append(c.L1s, s.L1().Stats())
	}
	for _, p := range g.parts {
		c.Partitions = append(c.Partitions, p.Stats())
		c.L2s = append(c.L2s, p.L2().Stats())
		c.DRAMs = append(c.DRAMs, p.DRAM().Stats())
	}
	return c
}

// Export registers the -trace-sim families on reg.
func (c Counters) Export(reg *metrics.Registry) {
	metrics.Walk(reg, func() Counters { return c })
}

// String renders the device's and each component's counters, one line
// each: the device, each SM and its L1, each partition and its L2 and
// DRAM channel, then the request and reply networks. The wake and kernel
// rows are labelled families, rendered by Export.
func (c Counters) String() string {
	s := fmt.Sprintf("gpu %+v\n", c.Stats)
	for i := range c.SMs {
		s += fmt.Sprintf("sm%d %+v\n  l1 %+v\n", i, c.SMs[i], c.L1s[i])
	}
	for i := range c.Partitions {
		s += fmt.Sprintf("part%d %+v\n  l2 %+v\n  dram %+v\n", i, c.Partitions[i], c.L2s[i], c.DRAMs[i])
	}
	return s + fmt.Sprintf("reqnet %+v\nreplynet %+v\n", c.ReqNet, c.ReplyNet)
}
