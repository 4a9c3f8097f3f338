package render

import (
	"cmp"
	"slices"

	"gamestreamsr/internal/geom"
)

// Bounding volume hierarchy over the scene's bounded objects. The
// raycaster's inner loop tests every primary ray against every object;
// game scenes here carry 20–60 objects, so a median-split BVH turns that
// linear scan into a few box tests. The traversal computes *exactly* the
// same nearest hit as the linear scan (pruning only discards objects whose
// bounds cannot beat the current best t), which the equivalence property
// test pins down.
//
// Objects whose Shape does not implement geom.Bounded (user-supplied custom
// shapes) fall back to the linear path.

// bvhNode is one node of the flattened tree. Leaves hold an index range
// into the object permutation; interior nodes hold a child offset.
type bvhNode struct {
	bounds geom.AABB
	// For leaves: start/count into objIdx. For interior nodes: count == 0
	// and right is the index of the right child (left child is the next
	// array element).
	start, count int
	right        int
}

// bvh accelerates nearest-hit queries over a fixed set of objects.
type bvh struct {
	nodes  []bvhNode
	objIdx []int // permutation of bounded-object indices
}

// buildItem pairs an object index with its precomputed bounds.
type buildItem struct {
	idx    int
	bounds geom.AABB
	center geom.Vec3
}

const bvhLeafSize = 2

// newBVH builds a hierarchy over the given items (nil if empty).
func newBVH(items []buildItem) *bvh {
	if len(items) == 0 {
		return nil
	}
	b := &bvh{}
	b.build(items)
	return b
}

func (b *bvh) build(items []buildItem) int {
	node := bvhNode{bounds: items[0].bounds}
	for _, it := range items[1:] {
		node.bounds = node.bounds.Union(it.bounds)
	}
	self := len(b.nodes)
	b.nodes = append(b.nodes, node)

	if len(items) <= bvhLeafSize {
		b.nodes[self].start = len(b.objIdx)
		b.nodes[self].count = len(items)
		for _, it := range items {
			b.objIdx = append(b.objIdx, it.idx)
		}
		return self
	}

	// Split at the median along the longest axis of the centroid extent.
	lo, hi := items[0].center, items[0].center
	for _, it := range items[1:] {
		lo = geom.Vec3{X: min(lo.X, it.center.X), Y: min(lo.Y, it.center.Y), Z: min(lo.Z, it.center.Z)}
		hi = geom.Vec3{X: max(hi.X, it.center.X), Y: max(hi.Y, it.center.Y), Z: max(hi.Z, it.center.Z)}
	}
	ext := hi.Sub(lo)
	axis := 0
	if ext.Y > ext.X && ext.Y >= ext.Z {
		axis = 1
	} else if ext.Z > ext.X && ext.Z > ext.Y {
		axis = 2
	}
	// slices.SortFunc, not sort.Slice: the build runs every frame, and
	// sort.Slice allocates a reflect swapper plus a closure per split.
	slices.SortFunc(items, func(a, b buildItem) int {
		return cmp.Compare(axisOf(a.center, axis), axisOf(b.center, axis))
	})
	mid := len(items) / 2

	b.build(items[:mid])
	right := b.build(items[mid:])
	b.nodes[self].right = right
	return self
}

func axisOf(v geom.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// nearest traverses the hierarchy and refines (bestHit, bestIdx) with the
// nearest intersection among the indexed objects. objs is the scene's
// object slice; the returned index refers into it (-1 if no hit improved).
func (b *bvh) nearest(objs []Object, r geom.Ray, tMin float64, best geom.Hit, bestIdx int) (geom.Hit, int) {
	if b == nil {
		return best, bestIdx
	}
	// Manual stack of node indices; node 0 is the root. Nodes are laid
	// out parent, left subtree, right subtree, so the left child of node
	// i is i+1 and the right child index is stored explicitly.
	var stack [64]int
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		ni := stack[sp]
		n := &b.nodes[ni]
		if !n.bounds.HitRange(r, tMin, best.T) {
			continue
		}
		if n.count > 0 {
			for _, oi := range b.objIdx[n.start : n.start+n.count] {
				if h := objs[oi].Shape.Intersect(r, tMin, best.T); h.OK {
					best = h
					bestIdx = oi
				}
			}
			continue
		}
		stack[sp] = n.right
		sp++
		stack[sp] = ni + 1
		sp++
	}
	return best, bestIdx
}
