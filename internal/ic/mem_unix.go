//go:build unix && !aix

package ic

import (
	"syscall"
	"unsafe"

	"symbol/internal/word"
)

// newMem maps a zeroed memory image: a private anonymous mapping that
// reserves no swap, so the kernel supplies a zero page on first touch and
// an image costs the pages a run writes, not MemWords words. When the
// mapping fails it falls back to the heap (mapped false).
func newMem() (mem []word.W, mapped bool) {
	b, err := syscall.Mmap(-1, 0, MemWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return make([]word.W, MemWords), false
	}
	return unsafe.Slice((*word.W)(unsafe.Pointer(unsafe.SliceData(b))), MemWords), true
}

// unmapMem gives a mapped image back to the kernel. Munmap fails only for
// a range that is not a live mapping, which Free's mapped flag rules out.
func unmapMem(mem []word.W) {
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(mem))), len(mem)*8))
}
