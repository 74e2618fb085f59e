// Package recycle carries one simulation cell's large arrays into the
// next cell: the cache arrays, Bloom banks, backing stores and oracles
// whose size follows the simulated machine or the workload.
//
// A Pool keeps one free list per key, so a structure comes back only to a
// constructor that wants its exact size. Every free list is a sync.Pool:
// the garbage collector bounds it, freeing whatever stays unused across
// two collections, and it is safe for concurrent cells. A released value
// holds whatever its last user left, including a cancelled cell's
// mid-run state, so every constructor that takes one resets all of it.
package recycle

import "sync"

// Pool holds released *T values, one free list per key. The zero Pool is
// ready to use.
type Pool[K comparable, T any] struct {
	lists sync.Map // K -> *sync.Pool
}

// Get returns a value released under k, or nil when none is free.
func (p *Pool[K, T]) Get(k K) *T {
	l, ok := p.lists.Load(k)
	if !ok {
		return nil
	}
	x, _ := l.(*sync.Pool).Get().(*T)
	return x
}

// Put releases x under k. The caller must not use x again.
func (p *Pool[K, T]) Put(k K, x *T) {
	l, ok := p.lists.Load(k)
	if !ok {
		l, _ = p.lists.LoadOrStore(k, new(sync.Pool))
	}
	l.(*sync.Pool).Put(x)
}

// Slices holds released slices, one free list per length. The zero
// Slices is ready to use.
type Slices[T any] struct {
	p Pool[int, []T]
}

// Get returns a zeroed slice of length n: a released one when one of
// that length is free, a new one otherwise.
func (s *Slices[T]) Get(n int) []T {
	if x := s.p.Get(n); x != nil {
		clear(*x)
		return *x
	}
	return make([]T, n)
}

// Put releases x. The caller must not use x again.
func (s *Slices[T]) Put(x []T) { s.p.Put(len(x), &x) }
