package deps

import (
	"testing"
	"unsafe"
)

// TestNodeLayout pins the Node half of the task shell's layout
// contract (core.TestTaskLayout pins where the node sits in the
// shell): the four fields an access-free registration touches fill the
// first 48 bytes, the rest of the header ends at 72, and the access
// storage and predecessor slots come last, in a fixed 480 bytes.
//
// The 48 is not a line boundary. core.TestTaskLayout reads the lines
// off a heap shell, which starts 8 bytes into a line, with the node 144
// bytes in: node bytes [0,40) end the shell's line 2 (Payload and
// Accesses, beside alive) and line 3 begins 40 bytes into the node.
// pins and pending are line 3's first 8 bytes, and gen, the first field
// only release and recycling touch, follows them at 48.
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
		t.Errorf("Node.gen at %d, want %d: right after pins and pending, which open the shell's line 3 at node byte 40 (core.TestTaskLayout)", off, hot)
	}
	if off := unsafe.Offsetof(n.inline); off != header {
		t.Errorf("Node.inline at %d, want %d: the header grew or shrank", off, header)
	}
	if unsafe.Offsetof(n.preds) < unsafe.Offsetof(n.inline) {
		t.Errorf("Node.preds at %d precedes inline at %d", unsafe.Offsetof(n.preds), unsafe.Offsetof(n.inline))
	}
	// The cold part is a budget: InlineAccessCap accesses and as many
	// predecessor slots are exactly the 480 bytes that keep core.Task in
	// its allocator size class (core.TestTaskLayout), and five is the
	// five-point stencil's access list, the widest a kernel here
	// declares. A wider Access or predSlot costs an inline slot.
	if InlineAccessCap != 5 {
		t.Errorf("InlineAccessCap = %d, want 5: the stencil's five accesses must stay inline", InlineAccessCap)
	}
	if len(n.preds) != len(n.inline) {
		t.Errorf("Node.preds has %d slots, inline %d: one predecessor slot per inline access", len(n.preds), len(n.inline))
	}
	if sz := unsafe.Sizeof(n.inline) + unsafe.Sizeof(n.preds); sz != 480 {
		t.Errorf("Node.inline + Node.preds = %d bytes, want 480: blame Access (%d bytes, want 80) or predSlot (%d, want 16)",
			sz, unsafe.Sizeof(Access{}), unsafe.Sizeof(predSlot{}))
	}
}

// TestAccessLayout pins the 80-byte access, field by field, so that a
// failure names the field that grew: eight pointer-sized words, then
// the 32-bit child guard sharing the last word with the four
// byte-sized fields.
func TestAccessLayout(t *testing.T) {
	var a Access
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"state", unsafe.Offsetof(a.state), unsafe.Sizeof(a.state)},
		{"addr", unsafe.Offsetof(a.addr), unsafe.Sizeof(a.addr)},
		{"length", unsafe.Offsetof(a.length), unsafe.Sizeof(a.length)},
		{"node", unsafe.Offsetof(a.node), unsafe.Sizeof(a.node)},
		{"succ", unsafe.Offsetof(a.succ), unsafe.Sizeof(a.succ)},
		{"child", unsafe.Offsetof(a.child), unsafe.Sizeof(a.child)},
		{"parentAccess", unsafe.Offsetof(a.parentAccess), unsafe.Sizeof(a.parentAccess)},
		{"group", unsafe.Offsetof(a.group), unsafe.Sizeof(a.group)},
		{"lentry", unsafe.Offsetof(a.lentry), unsafe.Sizeof(a.lentry)},
	} {
		if f.size != 8 || f.off >= 72 {
			t.Errorf("Access.%s is %d bytes at offset %d; the nine leading fields are one word each", f.name, f.size, f.off)
		}
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"childGuard", unsafe.Offsetof(a.childGuard), unsafe.Sizeof(a.childGuard)},
		{"typ", unsafe.Offsetof(a.typ), unsafe.Sizeof(a.typ)},
		{"op", unsafe.Offsetof(a.op), unsafe.Sizeof(a.op)},
		{"marks", unsafe.Offsetof(a.marks), unsafe.Sizeof(a.marks)},
		{"succReadCompat", unsafe.Offsetof(a.succReadCompat), unsafe.Sizeof(a.succReadCompat)},
	} {
		if f.off < 72 || f.off+f.size > 80 {
			t.Errorf("Access.%s spans bytes [%d,%d); the narrow fields share the last word, [72,80)", f.name, f.off, f.off+f.size)
		}
	}
	if sz := unsafe.Sizeof(a); sz != 80 {
		t.Errorf("Access is %d bytes, want 80", sz)
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
