package core

// PointKeyFor resolves opt like Run would (registry normalization,
// defaults applied) and returns the point's content address, or
// ErrUncacheable for configurations the cache must not serve. The cache
// tests reach the key through it.
func PointKeyFor(opt MatrixOptions) (PointKey, error) {
	p, err := planMatrix(opt)
	if err != nil {
		return PointKey{}, err
	}
	return pointKeyFor(p)
}
