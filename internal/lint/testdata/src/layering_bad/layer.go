// Package layering_bad stands in for an engine package: the fixture
// test declares container/list an experiment-only seed package, so this
// file's import of it must be flagged while its other import is not.
package layering_bad

import (
	"container/list" // want: seed package imported by an engine package
	"sort"
)

// Ordered uses both imports so the fixture type-checks.
func Ordered(xs []int) *list.List {
	sort.Ints(xs)
	l := list.New()
	for _, x := range xs {
		l.PushBack(x)
	}
	return l
}
