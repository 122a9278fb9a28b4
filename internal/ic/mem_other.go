//go:build !unix || aix

package ic

import "symbol/internal/word"

// newMem allocates a zeroed memory image on the heap: this platform has no
// anonymous mapping that reserves no swap (AIX lacks MAP_NORESERVE).
func newMem() (mem []word.W, mapped bool) { return make([]word.W, MemWords), false }

func unmapMem([]word.W) {}
