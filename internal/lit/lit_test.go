package lit

import (
	"testing"
	"testing/quick"
)

func TestNewPosNeg(t *testing.T) {
	for v := Var(0); v < 100; v++ {
		p, n := Pos(v), Neg(v)
		if p.Var() != v || n.Var() != v {
			t.Fatalf("var mismatch for %v: %v %v", v, p.Var(), n.Var())
		}
		if p.Sign() {
			t.Fatalf("Pos(%v) has negative sign", v)
		}
		if !n.Sign() {
			t.Fatalf("Neg(%v) has positive sign", v)
		}
		if p.Not() != n || n.Not() != p {
			t.Fatalf("Not is not an involution for %v", v)
		}
	}
}

func TestUndef(t *testing.T) {
	if New(UndefVar, false) != UndefLit {
		t.Error("New(UndefVar) should be UndefLit")
	}
	if UndefLit.Var() != UndefVar {
		t.Error("UndefLit.Var() should be UndefVar")
	}
	if UndefLit.Not() != UndefLit {
		t.Error("UndefLit.Not() should stay undef")
	}
	if UndefLit.IsDef() {
		t.Error("UndefLit.IsDef() should be false")
	}
	if Pos(3).IsDef() != true {
		t.Error("Pos(3) should be defined")
	}
	if UndefLit.Dimacs() != 0 {
		t.Error("UndefLit.Dimacs() should be 0")
	}
	if FromDimacs(0) != UndefLit {
		t.Error("FromDimacs(0) should be UndefLit")
	}
	if UndefLit.String() != "lit(undef)" {
		t.Errorf("unexpected undef string %q", UndefLit.String())
	}
	if UndefVar.String() != "v(undef)" {
		t.Errorf("unexpected undef var string %q", UndefVar.String())
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	f := func(d int16) bool {
		if d == 0 {
			return true
		}
		l := FromDimacs(int(d))
		return l.Dimacs() == int(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLitDimacsRoundTrip(t *testing.T) {
	f := func(v uint16, neg bool) bool {
		l := New(Var(v), neg)
		return FromDimacs(l.Dimacs()) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLitString(t *testing.T) {
	if got := Pos(0).String(); got != "1" {
		t.Errorf("Pos(0).String() = %q, want 1", got)
	}
	if got := Neg(2).String(); got != "-3" {
		t.Errorf("Neg(2).String() = %q, want -3", got)
	}
	if got := Var(7).String(); got != "v7" {
		t.Errorf("Var(7).String() = %q, want v7", got)
	}
}

func TestTernOf(t *testing.T) {
	if TernOf(true) != True || TernOf(false) != False {
		t.Error("TernOf mismatch")
	}
}

func TestTernNot(t *testing.T) {
	cases := map[Tern]Tern{True: False, False: True, Unknown: Unknown}
	for in, want := range cases {
		if got := in.Not(); got != want {
			t.Errorf("%v.Not() = %v, want %v", in, got, want)
		}
	}
}

func TestTernXorSign(t *testing.T) {
	if True.XorSign(true) != False || True.XorSign(false) != True {
		t.Error("Tern.XorSign broken on True")
	}
	if Unknown.XorSign(true) != Unknown {
		t.Error("Tern.XorSign should preserve Unknown")
	}
}

func TestTernStrings(t *testing.T) {
	if True.String() != "1" || False.String() != "0" || Unknown.String() != "X" {
		t.Error("Tern.String mismatch")
	}
}
