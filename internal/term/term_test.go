package term

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAtomString(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"sam", "sam"},
		{"fooBar_9", "fooBar_9"},
		{"[]", "[]"},
		{"hello world", "'hello world'"},
		{"Upper", "'Upper'"},
		{"", "''"},
		{"=..", "=.."},
		{"don't", "'don\\'t'"},
		{".", "'.'"},
		{":-", "':-'"},
		{"/*", "'/*'"},
		{"!", "!"},
		{"{}", "'{}'"},
	}
	for _, c := range cases {
		if got := NewAtom(c.in).String(); got != c.want {
			t.Errorf("NewAtom(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIntString(t *testing.T) {
	if got := Int(-42).String(); got != "-42" {
		t.Errorf("Int(-42).String() = %q", got)
	}
}

func TestVarString(t *testing.T) {
	v := NewVar("X")
	if got := v.String(); got != "X" {
		t.Errorf("named var prints %q, want X", got)
	}
	anon := NewVar("_")
	if got := anon.String(); got[:2] != "_G" {
		t.Errorf("anonymous var prints %q, want _G prefix", got)
	}
}

func TestCompoundString(t *testing.T) {
	x := NewVar("X")
	tm := NewCompound("f", NewAtom("sam"), x)
	if got := tm.String(); got != "f(sam,X)" {
		t.Errorf("got %q, want f(sam,X)", got)
	}
}

// TestAppend renders through bindings, quotes functors that only read
// back bare as atoms, and allocates nothing when dst has room.
func TestAppend(t *testing.T) {
	x, anon := NewVar("X"), NewVar("_")
	tm := NewCompound("f", NewAtom("hello world"), Cons(Int(-3), x), NewCompound("[]", anon), NewCompound("!", EmptyList))
	env := (*Env)(nil).Bind(x, Cons(NewAtom("a"), NewVar("T")))
	want := "f('hello world',[-3,a|T],'[]'(" + anon.String() + "),'!'([]))"
	if got := string(Append(nil, tm, env)); got != want {
		t.Errorf("Append = %s, want %s", got, want)
	}
	if got := env.Format(tm); got != want {
		t.Errorf("Format = %s, want %s", got, want)
	}
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf = Append(buf[:0], tm, env) }); n != 0 {
		t.Errorf("Append into a buffer with room allocated %.0f times", n)
	}
}

// TestAppendAnswer prints an unbound variable by its name only when it is
// one of own, any other — however it is named — as _G<serial>, read
// through bindings and with nothing allocated.
func TestAppendAnswer(t *testing.T) {
	x, y, a1, a2 := NewVar("X"), NewVar("Y"), NewVar("A"), NewVar("A")
	tm := NewCompound("f", x, y, a2, a1)
	env := (*Env)(nil).Bind(x, Cons(a1, EmptyList))
	own := []Term{x, y}
	want := fmt.Sprintf("f([_G%d],Y,_G%d,_G%d)", a1.ID, a2.ID, a1.ID)
	if got := string(AppendAnswer(nil, tm, env, own)); got != want {
		t.Errorf("AppendAnswer = %s, want %s", got, want)
	}
	if got, want := string(Append(nil, tm, env)), "f([A],Y,A,A)"; got != want {
		t.Errorf("Append = %s, want %s", got, want)
	}
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf = AppendAnswer(buf[:0], tm, env, own) }); n != 0 {
		t.Errorf("AppendAnswer into a buffer with room allocated %.0f times", n)
	}
}

func TestNewCompoundZeroArgsIsAtom(t *testing.T) {
	tm := NewCompound("foo")
	if _, ok := tm.(Atom); !ok {
		t.Fatalf("NewCompound with no args should produce Atom, got %T", tm)
	}
}

func TestListString(t *testing.T) {
	l := FromList([]Term{NewAtom("a"), Int(2), NewAtom("c")})
	if got := l.String(); got != "[a,2,c]" {
		t.Errorf("got %q, want [a,2,c]", got)
	}
	partial := Cons(NewAtom("a"), NewVar("T"))
	if got := partial.String(); got != "[a|T]" {
		t.Errorf("got %q, want [a|T]", got)
	}
	if got := Term(EmptyList).String(); got != "[]" {
		t.Errorf("got %q, want []", got)
	}
}

func TestIndicator(t *testing.T) {
	if ind, ok := Indicator(NewCompound("f", NewAtom("a"), NewAtom("b"))); !ok || ind != "f/2" {
		t.Errorf("Indicator(f(a,b)) = %q,%v", ind, ok)
	}
	if ind, ok := Indicator(NewAtom("true")); !ok || ind != "true/0" {
		t.Errorf("Indicator(true) = %q,%v", ind, ok)
	}
	if _, ok := Indicator(Int(3)); ok {
		t.Error("Indicator(3) should not be callable")
	}
	if _, ok := Indicator(NewVar("X")); ok {
		t.Error("Indicator(X) should not be callable")
	}
}

func TestEnvBindLookup(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	var e *Env
	if _, ok := e.Lookup(x); ok {
		t.Fatal("empty env should have no bindings")
	}
	e1 := e.Bind(x, NewAtom("a"))
	e2 := e1.Bind(y, NewAtom("b"))
	if v, ok := e2.Lookup(x); !ok || v != NewAtom("a") {
		t.Errorf("X = %v, %v", v, ok)
	}
	if v, ok := e2.Lookup(y); !ok || v != NewAtom("b") {
		t.Errorf("Y = %v, %v", v, ok)
	}
	// e1 must be unaffected by the extension (persistence).
	if _, ok := e1.Lookup(y); ok {
		t.Error("binding of Y leaked into ancestor environment")
	}
	if e2.Depth() != 2 || e1.Depth() != 1 || e.Depth() != 0 {
		t.Errorf("depths = %d,%d,%d", e2.Depth(), e1.Depth(), e.Depth())
	}
}

func TestEnvSiblingIndependence(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	base := (*Env)(nil).Bind(x, NewAtom("root"))
	left := base.Bind(y, NewAtom("l"))
	right := base.Bind(y, NewAtom("r"))
	if v, _ := left.Lookup(y); v != NewAtom("l") {
		t.Errorf("left sees Y=%v", v)
	}
	if v, _ := right.Lookup(y); v != NewAtom("r") {
		t.Errorf("right sees Y=%v", v)
	}
}

func TestEnvSnapshotDeepChain(t *testing.T) {
	// Build a chain much deeper than snapshotEvery and check every binding
	// is still visible — this exercises the snapshot fast path.
	const n = 10 * snapshotEvery
	vars := make([]*Var, n)
	var e *Env
	for i := range vars {
		vars[i] = NewVar("V")
		e = e.Bind(vars[i], Int(i))
	}
	for i, v := range vars {
		got, ok := e.Lookup(v)
		if !ok || got != Int(i) {
			t.Fatalf("binding %d lost: got %v, %v", i, got, ok)
		}
	}
}

func TestResolveChain(t *testing.T) {
	x, y, z := NewVar("X"), NewVar("Y"), NewVar("Z")
	e := (*Env)(nil).Bind(x, y).Bind(y, z).Bind(z, NewAtom("end"))
	if got := e.Resolve(x); got != NewAtom("end") {
		t.Errorf("Resolve(X) = %v, want end", got)
	}
	free := NewVar("F")
	e2 := e.Bind(NewVar("W"), free)
	if got := e2.Resolve(free); got != free {
		t.Errorf("Resolve of unbound var should be itself, got %v", got)
	}
}

// TestDetachResolves: on a persistent Env, Detach only resolves — bound
// variables replaced, ground subterms shared.
func TestDetachResolves(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	tm := NewCompound("f", x, NewCompound("g", y))
	e := (*Env)(nil).Bind(x, NewAtom("a")).Bind(y, Int(7))
	d := Detacher{Env: e}
	got := d.Detach(tm)
	want := NewCompound("f", NewAtom("a"), NewCompound("g", Int(7)))
	if !EqualUnder(nil, got, want) {
		t.Errorf("Detach = %v, want %v", got, want)
	}
	// Untouched subterms should be shared, not copied.
	g := NewCompound("g", NewAtom("k"))
	t2 := NewCompound("h", g).(*Compound)
	if r2 := d.Detach(t2).(*Compound); r2 != t2 {
		t.Error("fully ground term should be returned unchanged")
	}
}

// TestDetachPooled: pooled compounds are copied and pooled variables
// renamed — one fresh variable per pooled one across a Detacher's life,
// past the renaming's inline pairs — while Own's names win and other
// variables stay themselves.
func TestDetachPooled(t *testing.T) {
	var fp FramePool
	var cp CompoundPool
	names := []string{"A", "B", "C", "D", "E", "F"}
	f := fp.Get(names)
	own, plain := NewVar("Q"), NewVar("P")
	c := cp.Get(Intern("k"), len(names)+1)
	for i := range names {
		c.Args[i] = f.Var(i)
	}
	c.Args[len(names)] = plain
	d := Detacher{Env: NewStore().Env()}
	d.Own(f.Var(0), own)
	first := d.Detach(c).(*Compound)
	second := d.Detach(c).(*Compound)
	if first == c || second == c {
		t.Fatal("a pooled compound must be copied")
	}
	if first.Args[0] != own {
		t.Errorf("owned variable detached as %v, want %v", first.Args[0], own)
	}
	if first.Args[len(names)] != plain {
		t.Errorf("unpooled variable detached as %v, want itself", first.Args[len(names)])
	}
	seen := map[Term]bool{}
	for i := 1; i < len(names); i++ {
		v := first.Args[i].(*Var)
		if v == f.Var(i) || seen[v] || v.Name != names[i] {
			t.Errorf("pooled %s detached as %v: want a fresh variable of that name", names[i], v)
		}
		seen[v] = true
		if second.Args[i] != v {
			t.Errorf("pooled %s detached as %v, then %v", names[i], v, second.Args[i])
		}
	}
	// Two query variables standing for one unbound variable: the later
	// Own names it.
	later := NewVar("R")
	d.Own(f.Var(0), later)
	if got := d.Detach(f.Var(0)); got != later {
		t.Errorf("re-owned variable detached as %v, want %v", got, later)
	}
}

func TestEnvFormat(t *testing.T) {
	x := NewVar("X")
	e := (*Env)(nil).Bind(x, FromList([]Term{NewAtom("a"), NewAtom("b")}))
	if got := e.Format(NewCompound("p", x)); got != "p([a,b])" {
		t.Errorf("Format = %q", got)
	}
}

func TestRefreshConsistency(t *testing.T) {
	x := NewVar("X")
	tm := NewCompound("f", x, x, NewVar("Y"))
	out := Refresh(tm).(*Compound)
	a0, a1 := out.Args[0].(*Var), out.Args[1].(*Var)
	if a0 != a1 {
		t.Error("same source var must refresh to same fresh var")
	}
	if a0 == x {
		t.Error("refreshed var must be fresh")
	}
	if out.Args[2].(*Var) == a0 {
		t.Error("distinct source vars must stay distinct")
	}
	// Ground subterms pass through.
	if g := Refresh(NewAtom("a")); g != NewAtom("a") {
		t.Errorf("Refresh(a) = %v", g)
	}
}

func TestInternStable(t *testing.T) {
	a, b := Intern("zebra_functor"), Intern("zebra_functor")
	if a != b {
		t.Fatalf("Intern not stable: %d vs %d", a, b)
	}
	if a.Name() != "zebra_functor" {
		t.Fatalf("Name round-trip = %q", a.Name())
	}
	if NewAtom("zebra_functor") != NewAtom("zebra_functor") {
		t.Fatal("atoms of same name must be ==")
	}
	if NewAtom("zebra_functor") == NewAtom("other_functor") {
		t.Fatal("atoms of different names must differ")
	}
}

func TestNewFrameUniqueIDs(t *testing.T) {
	f1 := NewFrame([]string{"A", "B", "C"})
	f2 := NewFrame([]string{"A"})
	seen := map[uint64]bool{}
	for _, f := range []*Frame{f1, f2} {
		for i := 0; i < f.Size(); i++ {
			v := f.Var(i)
			if seen[v.ID] {
				t.Fatalf("duplicate frame var ID %d", v.ID)
			}
			seen[v.ID] = true
		}
	}
	if f1.Var(0).Name != "A" || f1.Var(2).Name != "C" {
		t.Error("frame vars must keep their print names")
	}
}

func TestVars(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	tm := NewCompound("f", x, NewCompound("g", y, x))
	vs := VarsUnder(nil, tm, nil)
	if len(vs) != 2 || vs[0] != x || vs[1] != y {
		t.Errorf("Vars = %v", vs)
	}
}

func TestVarsUnder(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	e := (*Env)(nil).Bind(x, NewCompound("g", y))
	vs := VarsUnder(e, NewCompound("f", x), nil)
	if len(vs) != 1 || vs[0] != y {
		t.Errorf("VarsUnder = %v, want [Y]", vs)
	}
}

func TestEqual(t *testing.T) {
	x := NewVar("X")
	if !EqualUnder(nil, NewCompound("f", x, Int(1)), NewCompound("f", x, Int(1))) {
		t.Error("identical structure should be Equal")
	}
	if EqualUnder(nil, NewCompound("f", NewVar("X")), NewCompound("f", NewVar("X"))) {
		t.Error("distinct vars must not be Equal")
	}
	if EqualUnder(nil, NewAtom("a"), Int(1)) {
		t.Error("atom != int")
	}
}

func TestCompareOrder(t *testing.T) {
	v := NewVar("X")
	seq := []Term{v, Int(1), NewAtom("a"), NewCompound("f", NewAtom("a"))}
	for i := 0; i < len(seq); i++ {
		for j := 0; j < len(seq); j++ {
			got := Compare(seq[i], seq[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v,%v) = %d, want <0", seq[i], seq[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v,%v) = %d, want >0", seq[i], seq[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v) = %d, want 0", seq[i], seq[j], got)
			}
		}
	}
	if Compare(Int(1), Int(2)) >= 0 || Compare(NewAtom("a"), NewAtom("b")) >= 0 {
		t.Error("ordering within kinds broken")
	}
	if Compare(NewCompound("f", Int(1)), NewCompound("f", Int(2))) >= 0 {
		t.Error("compound args should order")
	}
}

func TestGround(t *testing.T) {
	x := NewVar("X")
	tm := NewCompound("f", x)
	if Ground(nil, tm) {
		t.Error("f(X) is not ground")
	}
	e := (*Env)(nil).Bind(x, NewAtom("a"))
	if !Ground(e, tm) {
		t.Error("f(a) is ground under env")
	}
}

func TestFreshVarIDsUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		v := NewVar("V")
		if seen[v.ID] {
			t.Fatalf("duplicate var ID %d", v.ID)
		}
		seen[v.ID] = true
	}
}

// Property: for any sequence of (var, value) bindings, every bound variable
// resolves to its value regardless of chain depth (snapshot correctness).
func TestPropertyEnvLookupTotal(t *testing.T) {
	f := func(vals []int8) bool {
		var e *Env
		vars := make([]*Var, len(vals))
		for i, x := range vals {
			vars[i] = NewVar("V")
			e = e.Bind(vars[i], Int(x))
		}
		for i, v := range vars {
			got, ok := e.Lookup(v)
			if !ok || got != Int(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Equal terms compare to 0.
func TestPropertyCompareAntisymmetric(t *testing.T) {
	gen := func(n int8, s string) Term {
		switch n % 3 {
		case 0:
			return Int(n)
		case 1:
			return NewAtom(s)
		default:
			return NewCompound("f", Int(n), NewAtom(s))
		}
	}
	f := func(n1 int8, s1 string, n2 int8, s2 string) bool {
		a, b := gen(n1, s1), gen(n2, s2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEnvBind(b *testing.B) {
	v := NewVar("X")
	var e *Env
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e = e.Bind(v, Int(i))
		if e.Depth() > 1024 {
			e = nil
		}
	}
}

func BenchmarkEnvLookupDeep(b *testing.B) {
	var e *Env
	vars := make([]*Var, 256)
	for i := range vars {
		vars[i] = NewVar("V")
		e = e.Bind(vars[i], Int(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Lookup(vars[i%len(vars)]); !ok {
			b.Fatal("lost binding")
		}
	}
}
