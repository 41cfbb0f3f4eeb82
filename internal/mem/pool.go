package mem

// RequestPool is a free list recycling Request and StageLog objects
// through the memory pipeline, so the steady-state simulation path
// allocates nothing per transaction. One pool serves a whole device:
// requests are acquired by SMs and partitions (writebacks, fetches) and
// released at their retire points — the observer delivery for tracked
// loads, the drain points for stores and internal requests.
//
// Recycling cannot affect simulated results: request identity is carried
// by Request.ID everywhere (the one pointer-identity comparison, the
// L1 fill's merged-self check, happens strictly before either pointer is
// released), so which pointer a component happens to receive never
// changes any field value.
//
// The zero value is ready to use; a nil *RequestPool degrades to plain
// allocation, so standalone components work unpooled. A pool belongs to
// one device and, like the device, to one goroutine.
type RequestPool struct {
	reqs []*Request
	logs []*StageLog
	// out and logsOut count the requests and logs Get handed out that
	// Put has not taken back.
	out, logsOut int
}

// Outstanding returns the requests and stage logs handed out and not yet
// released: both are 0 once a device has drained.
func (p *RequestPool) Outstanding() (reqs, logs int) { return p.out, p.logsOut }

// Get returns a zeroed request, with a zeroed StageLog attached when
// tracked is true (load-latency instrumentation), reusing released
// objects when available.
func (p *RequestPool) Get(tracked bool) *Request {
	if p == nil {
		r := &Request{}
		if tracked {
			r.Log = &StageLog{}
		}
		return r
	}
	var (
		r  *Request
		lg *StageLog
	)
	if n := len(p.reqs); n > 0 {
		r, p.reqs = p.reqs[n-1], p.reqs[:n-1]
	}
	if tracked {
		if n := len(p.logs); n > 0 {
			lg, p.logs = p.logs[n-1], p.logs[:n-1]
		}
	}
	p.out++
	if r == nil {
		r = &Request{}
	} else {
		*r = Request{}
	}
	if tracked {
		if lg == nil {
			lg = &StageLog{}
		}
		p.logsOut++
		r.Log = lg
	}
	return r
}

// Put releases a request (and its log, if any) back to the pool. The
// caller must be the request's sole owner: after Put the object's fields
// are zeroed and will be handed to an unrelated transaction. Releasing
// the same request twice panics at the second release. Put(nil) and
// calls on a nil pool are no-ops.
func (p *RequestPool) Put(r *Request) {
	if p == nil || r == nil {
		return
	}
	if r.pooled {
		panic("mem: request released to pool twice: " + r.String())
	}
	lg := r.Log
	*r = Request{pooled: true}
	if lg != nil {
		*lg = StageLog{}
	}
	p.reqs = append(p.reqs, r)
	p.out--
	if lg != nil {
		p.logs = append(p.logs, lg)
		p.logsOut--
	}
}
