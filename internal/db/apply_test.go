package db

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// genUpdate draws one encoded update from a mix that covers every op
// kind: set/del/mixed, § 6 commutative adds and timestamp writes, cas
// and proc, aborts part-way through an update, malformed encodings and
// noops.
func genUpdate(rng *rand.Rand) []byte {
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(16)) }
	switch rng.Intn(12) {
	case 0:
		return EncodeUpdate(Set(key(), fmt.Sprintf("v%d", rng.Intn(1000))))
	case 1:
		return EncodeUpdate(Del(key()))
	case 2: // the engine's standard strict mixed update
		k := key()
		return EncodeUpdate(Set(k, fmt.Sprintf("v%d", rng.Intn(1000))), Add("ctr:"+k, 1))
	case 3:
		return EncodeUpdate(Add(key(), int64(rng.Intn(7))-3))
	case 4: // commutative multi-add
		return EncodeUpdate(Add(key(), 1), Add(key(), int64(rng.Intn(5))))
	case 5:
		return EncodeUpdate(TSSet(key(), fmt.Sprintf("t%d", rng.Intn(100)), int64(rng.Intn(50))))
	case 6: // cas, guard passes or fails depending on live state
		return EncodeUpdate(CAS(map[string]string{key(): fmt.Sprintf("v%d", rng.Intn(1000))},
			Set(key(), "cas-win")))
	case 7: // cas with empty guard always applies its body
		return EncodeUpdate(CAS(nil, Set(key(), "cas-free"), Add("ctr:"+key(), 2)))
	case 8:
		switch rng.Intn(3) {
		case 0:
			return EncodeUpdate(Proc("double", []byte(key())))
		case 1: // the procedure fails after it wrote
			return EncodeUpdate(Proc("fail", []byte(key())))
		}
		return EncodeUpdate(Set(key(), "before-missing"), Proc("missing", nil))
	case 9: // bad add delta aborts after an earlier op wrote
		k := key()
		return EncodeUpdate(Set(k, "partial"), Op{Kind: "add", Key: k, Value: "not-a-number"})
	case 10:
		return []byte(`{"ops":[{`) // malformed encoding
	default:
		return EncodeUpdate(Noop("padding"), Set(key(), "after-noop"))
	}
}

func registerTestProcs(d *Database) {
	d.RegisterProc("double", func(tx *Tx, args []byte) error {
		k := string(args)
		v, _ := tx.Get(k)
		tx.Set(k, v+v)
		return nil
	})
	d.RegisterProc("fail", func(tx *Tx, args []byte) error {
		tx.Set(string(args), "written-then-failed")
		return fmt.Errorf("refused")
	})
}

// errStr normalizes errors for comparison.
func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestGreenAndDirtyAgree holds green and dirty apply to one abort rule:
// an update that fails leaves no effects on either path. The same
// seeded stream goes green into one database and dirty into a fresh
// one; after every update the errors and every readable key must agree.
func TestGreenAndDirtyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	green, red := New(), New()
	registerTestProcs(green)
	registerTestProcs(red)
	all := Prefix("")
	for i := 0; i < 1000; i++ {
		u := genUpdate(rng)
		gerr, rerr := green.Apply(u), red.ApplyDirty(u)
		if errStr(gerr) != errStr(rerr) {
			t.Fatalf("update %d: green err %q, dirty err %q\nupdate: % x", i, errStr(gerr), errStr(rerr), u)
		}
		g, err := green.QueryGreen(all)
		if err != nil {
			t.Fatal(err)
		}
		r, err := red.QueryDirty(all)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Values, r.Values) {
			t.Fatalf("update %d (err %q): green and dirty state differ\ngreen: %v\ndirty: %v\nupdate: % x",
				i, errStr(gerr), g.Values, r.Values, u)
		}
	}
}

// TestGreenBatchKeepsDirtyOverlay checks a red overlay applied
// mid-stream survives a green batch untouched and still layers over the
// new green state.
func TestGreenBatchKeepsDirtyOverlay(t *testing.T) {
	d := New()
	if err := d.ApplyDirty(EncodeUpdate(Set("red", "r1"))); err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = EncodeUpdate(Set(fmt.Sprintf("g%d", i), "v"))
	}
	d.ApplyBatch(batch)
	res, err := d.QueryDirty(Get("red"))
	if err != nil || !res.Found || res.Value != "r1" || !res.Dirty {
		t.Fatalf("dirty read after green batch: %+v err=%v", res, err)
	}
	if res, _ := d.QueryGreen(Get("g3")); res.Value != "v" {
		t.Fatalf("green read after green batch: %+v", res)
	}
}

// TestGreenMutatorsRouteThroughAppliers flags Database methods that
// assign to the green maps anywhere but commitGreen: a write made
// before an update is known to succeed breaks the abort rule.
func TestGreenMutatorsRouteThroughAppliers(t *testing.T) {
	allowed := map[string]bool{
		"commitGreen": true,
		// Lifecycle: wholesale state replacement, not per-key mutation.
		"Restore": true, "New": true,
	}
	isGreenMap := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != "d" {
			return "", false
		}
		if sel.Sel.Name == "data" || sel.Sel.Name == "ts" {
			return sel.Sel.Name, true
		}
		return "", false
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || allowed[fn.Name.Name] {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range st.Lhs {
							if idx, ok := lhs.(*ast.IndexExpr); ok {
								if name, green := isGreenMap(idx.X); green {
									t.Errorf("%s: %s writes green map d.%s directly; green writes go through commitGreen",
										fset.Position(st.Pos()), fn.Name.Name, name)
								}
							}
						}
					case *ast.CallExpr:
						if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) > 0 {
							if name, green := isGreenMap(st.Args[0]); green {
								t.Errorf("%s: %s deletes from green map d.%s directly; green writes go through commitGreen",
									fset.Position(st.Pos()), fn.Name.Name, name)
							}
						}
					}
					return true
				})
			}
		}
	}
}

// TestConcurrentApplyAndQueries runs green batches, red applies and
// both query paths at once; run it under -race. mu alone excludes the
// green mutator, and dirtyMu the red one.
func TestConcurrentApplyAndQueries(t *testing.T) {
	d := New()
	registerTestProcs(d)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch g {
				case 0:
					d.ApplyBatch([][]byte{genUpdate(rng), genUpdate(rng), genUpdate(rng)})
				case 1:
					_ = d.ApplyDirty(genUpdate(rng))
				default:
					if _, err := d.QueryGreen(Prefix("k")); err != nil {
						t.Error(err)
					}
					if _, err := d.QueryDirty(Get("k1")); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Version() != 600 {
		t.Fatalf("version %d after 200 batches of 3", d.Version())
	}
}
