package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/deps"
)

// TestAccessSpecLayout pins the clause type at deps.AccessSpec's 24
// bytes: the attribute kind fills the padding after the weak flag, so
// typed attributes cost an access list nothing.
func TestAccessSpecLayout(t *testing.T) {
	if s, d := unsafe.Sizeof(AccessSpec{}), unsafe.Sizeof(deps.AccessSpec{}); s != 24 || d != 24 {
		t.Errorf("AccessSpec is %d bytes and deps.AccessSpec %d, want 24 each", s, d)
	}
}

// layoutShell keeps TestTaskLayout's shell on the heap, where the
// allocator places every shell the runtime pools.
var layoutShell *Task

// TestTaskLayout pins the hot/cold layout of the task shell (see the
// Task doc comment and DESIGN.md, "Task lifetime and memory"): every
// field an access-free task's lifecycle touches sits on its assigned
// one of the first four cache lines, the cold access storage shares no
// line with alive or body, and the shell stays in its allocator size
// class. A failure names the field that moved. (deps.TestNodeLayout
// pins the order inside the node.)
//
// The lines are the ones memory holds, read off the addresses of a
// heap-allocated shell: a pointerful object past 512 bytes starts
// after an 8-byte allocator header, so a shell sits 8 bytes into a
// line and line k holds shell bytes [64k-8, 64k+56), not [64k, 64k+64).
func TestTaskLayout(t *testing.T) {
	const line = 64
	layoutShell = new(Task)
	x := layoutShell
	base := uintptr(unsafe.Pointer(x))
	if mis := base % line; mis != 8 {
		t.Errorf("a heap shell starts %d bytes into its line, want 8 (the allocator header): the line map below assumes it", mis)
	}
	lineOf := func(addr uintptr) uintptr { return addr/line - base/line }
	lines := map[string]uintptr{
		"handle": 0, "req": 0, "loop": 0, "events": 0, "fn": 0, "ownsScope": 0,
		"body": 1, "parent": 1, "sc": 1, "deadline": 1, "spawned": 1, "epri": 1, "qstate": 1,
		"pri": 1, "inherit": 1,
		"alive":        2,
		"node.Payload": 2, "node.Accesses": 2,
		"node.pins": 3, "node.pending": 3, "node.gen": 3, "node.npreds": 3, "node.domain": 3, "node.ldomain": 3,
	}
	check := func(prefix string, at uintptr, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			want, ok := lines[prefix+f.Name]
			if !ok {
				continue
			}
			delete(lines, prefix+f.Name)
			addr := at + f.Offset
			if first, last := lineOf(addr), lineOf(addr+f.Type.Size()-1); first != want || last != want {
				t.Errorf("Task.%s%s spans shell bytes [%d,%d), lines %d-%d; the layout contract puts it on line %d",
					prefix, f.Name, addr-base, addr-base+f.Type.Size(), first, last, want)
			}
		}
	}
	taskT := reflect.TypeOf(x).Elem()
	nodeT := reflect.TypeOf(&x.node).Elem()
	check("", base, taskT)
	check("node.", uintptr(unsafe.Pointer(&x.node)), nodeT)
	for name := range lines {
		t.Errorf("Task.%s is pinned by this test but no longer exists", name)
	}
	// inline may share the recycle-side line 3 but never a line a
	// running task's other cores write (alive) or its creator fills
	// (body).
	inl, _ := nodeT.FieldByName("inline")
	if l := lineOf(uintptr(unsafe.Pointer(&x.node)) + inl.Offset); l == lineOf(uintptr(unsafe.Pointer(&x.alive))) || l == lineOf(uintptr(unsafe.Pointer(&x.body))) {
		t.Errorf("Task.node.inline starts on line %d, shared with alive or body", l)
	}
	// Pointerful objects past 512 bytes carry an 8-byte allocator
	// header, so 696 is the largest shell the 704-byte class holds; one
	// byte more costs every pooled shell another 64. The shell fills the
	// class exactly: 144 bytes of task header and the node's 72, both
	// pinned above, leave 480 for deps.InlineAccessCap inline accesses
	// and predecessor slots (deps.TestNodeLayout, deps.TestAccessLayout
	// name the field when that part moves).
	if s := unsafe.Sizeof(*x); s != 704-8 {
		t.Errorf("Task is %d bytes, want 696 (node at %d, %d bytes): larger leaves the 704-byte size class, smaller gives away inline access storage",
			s, unsafe.Offsetof(x.node), unsafe.Sizeof(x.node))
	}
	if deps.InlineAccessCap != 5 {
		t.Errorf("deps.InlineAccessCap = %d, want 5 (the five-point stencil's access list)", deps.InlineAccessCap)
	}
}
