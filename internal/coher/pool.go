package coher

// Pool is a free list of one record kind: a protocol message, an MSHR, a
// victim-buffer entry, a directory entry. A record has one owner at a
// time. New hands out a record nobody else holds; its owner passes it on
// (a sender to the mesh, the mesh to the handler) and the last owner
// returns it with Put at the kind's one recycle point, after which it must
// not touch the record again. Pools are per simulation and never shared
// between goroutines.
type Pool[T any] struct {
	free []*T
}

// New returns a record holding v, recycled when one is free.
func (p *Pool[T]) New(v T) *T {
	var r *T
	if n := len(p.free); n > 0 {
		r, p.free = p.free[n-1], p.free[:n-1]
	} else {
		r = new(T)
	}
	*r = v
	return r
}

// Put recycles r. It is zeroed, so the free list holds no references.
func (p *Pool[T]) Put(r *T) {
	var zero T
	*r = zero
	p.free = append(p.free, r)
}
