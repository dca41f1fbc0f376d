package deps

import (
	"testing"
	"unsafe"
)

// TestNodeLayout pins the Node half of the task shell's layout
// contract (core.TestTaskLayout pins where the node sits in the
// shell): the four fields an access-free registration touches fill the
// first 48 bytes, the rest of the header ends at 72, and the access
// storage and predecessor slots come last.
func TestNodeLayout(t *testing.T) {
	var n Node
	const hot, header = 48, 72
	for _, f := range []struct {
		name             string
		off, size, limit uintptr
	}{
		{"Payload", unsafe.Offsetof(n.Payload), unsafe.Sizeof(n.Payload), hot},
		{"Accesses", unsafe.Offsetof(n.Accesses), unsafe.Sizeof(n.Accesses), hot},
		{"pins", unsafe.Offsetof(n.pins), unsafe.Sizeof(n.pins), hot},
		{"pending", unsafe.Offsetof(n.pending), unsafe.Sizeof(n.pending), hot},
		{"gen", unsafe.Offsetof(n.gen), unsafe.Sizeof(n.gen), header},
		{"npreds", unsafe.Offsetof(n.npreds), unsafe.Sizeof(n.npreds), header},
		{"domain", unsafe.Offsetof(n.domain), unsafe.Sizeof(n.domain), header},
		{"ldomain", unsafe.Offsetof(n.ldomain), unsafe.Sizeof(n.ldomain), header},
	} {
		if f.off+f.size > f.limit {
			t.Errorf("Node.%s ends at byte %d, past its %d-byte region", f.name, f.off+f.size, f.limit)
		}
	}
	if off := unsafe.Offsetof(n.gen); off != hot {
		t.Errorf("Node.gen at %d: the hot part must be exactly %d bytes (core.Task ends a line there)", off, hot)
	}
	if off := unsafe.Offsetof(n.inline); off != header {
		t.Errorf("Node.inline at %d, want %d: the header grew or shrank", off, header)
	}
	if unsafe.Offsetof(n.preds) < unsafe.Offsetof(n.inline) {
		t.Errorf("Node.preds at %d precedes inline at %d", unsafe.Offsetof(n.preds), unsafe.Offsetof(n.inline))
	}
}

// TestWaitFreeLayout pins the read-mostly system header to exactly one
// cache line (a 64-byte heap object is line-aligned), so no neighbour's
// writes can invalidate it.
func TestWaitFreeLayout(t *testing.T) {
	if sz := unsafe.Sizeof(WaitFree{}); sz != 64 {
		t.Errorf("WaitFree is %d bytes, want one 64-byte line", sz)
	}
}
