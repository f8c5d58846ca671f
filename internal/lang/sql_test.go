package lang

import (
	"math/rand"
	"slices"
	"testing"
)

// This file exercises the Appendix A claims: relational operations encode
// into L++ (and hence into pure L) as sequential scans over bounded
// relations with if-then-else filtering.

// selectSumSrc encodes
//
//	SELECT SUM(val) FROM r WHERE key = @k
//
// over a relation r(key, val) with 4 rows, as a sequential scan
// (Appendix A: "express SELECT-FROM-WHERE clauses as a sequential scan
// over the entire relation").
const selectSumSrc = `
transaction SelectSum(k) {
	relation r(4, 2);
	sum := 0;
	i := 0;
	if (r(0, 0) = k) then sum := sum + r(0, 1) else skip;
	if (r(1, 0) = k) then sum := sum + r(1, 1) else skip;
	if (r(2, 0) = k) then sum := sum + r(2, 1) else skip;
	if (r(3, 0) = k) then sum := sum + r(3, 1) else skip;
	print(sum)
}`

func relationDB(rows [][2]int64) Database {
	db := Database{}
	for i, row := range rows {
		db[ArrayObj("r", int64(i*2))] = row[0]
		db[ArrayObj("r", int64(i*2+1))] = row[1]
	}
	return db
}

func TestSelectFromWhereScan(t *testing.T) {
	txn := MustParse(selectSumSrc)
	rows := [][2]int64{{1, 10}, {2, 20}, {1, 30}, {3, 40}}
	db := relationDB(rows)
	cases := map[int64]int64{1: 40, 2: 20, 3: 40, 9: 0}
	for k, want := range cases {
		res, err := Eval(txn, db, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Log, []int64{want}) {
			t.Errorf("SELECT SUM WHERE key=%d: got %v, want [%d]", k, res.Log, want)
		}
	}
}

// updateWhereSrc encodes UPDATE r SET val = val + d WHERE key = @k.
const updateWhereSrc = `
transaction UpdateWhere(k, d) {
	relation r(4, 2);
	if (r(0, 0) = k) then write(r(0, 1) = r(0, 1) + d) else skip;
	if (r(1, 0) = k) then write(r(1, 1) = r(1, 1) + d) else skip;
	if (r(2, 0) = k) then write(r(2, 1) = r(2, 1) + d) else skip;
	if (r(3, 0) = k) then write(r(3, 1) = r(3, 1) + d) else skip
}`

func TestUpdateWhereScan(t *testing.T) {
	txn := MustParse(updateWhereSrc)
	rows := [][2]int64{{1, 10}, {2, 20}, {1, 30}, {3, 40}}
	res, err := Eval(txn, relationDB(rows), 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DB.Get(ArrayObj("r", 1)); got != 15 {
		t.Fatalf("row 0 val = %d, want 15", got)
	}
	if got := res.DB.Get(ArrayObj("r", 5)); got != 35 {
		t.Fatalf("row 2 val = %d, want 35", got)
	}
	if got := res.DB.Get(ArrayObj("r", 3)); got != 20 {
		t.Fatalf("row 1 val modified: %d", got)
	}
}

// insertWithFreeSlotSrc encodes INSERT by scanning for preallocated free
// space marked with the placeholder value 0 in the key column
// (Appendix A: "preallocating extra space in the array and keeping track
// of used vs. unused space with suitable placeholder values").
const insertWithFreeSlotSrc = `
transaction Insert(k, v) {
	relation r(4, 2);
	done := 0;
	if (r(0, 0) = 0) then {
		write(r(0, 0) = k); write(r(0, 1) = v); done := 1
	} else skip;
	if (done = 0 && r(1, 0) = 0) then {
		write(r(1, 0) = k); write(r(1, 1) = v); done := 1
	} else skip;
	if (done = 0 && r(2, 0) = 0) then {
		write(r(2, 0) = k); write(r(2, 1) = v); done := 1
	} else skip;
	if (done = 0 && r(3, 0) = 0) then {
		write(r(3, 0) = k); write(r(3, 1) = v); done := 1
	} else skip;
	print(done)
}`

func TestInsertIntoFreeSlot(t *testing.T) {
	txn := MustParse(insertWithFreeSlotSrc)
	// Rows 0 and 2 occupied; first free slot is row 1.
	db := relationDB([][2]int64{{7, 70}, {0, 0}, {9, 90}, {0, 0}})
	res, err := Eval(txn, db, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Log, []int64{1}) {
		t.Fatalf("insert not reported done: %v", res.Log)
	}
	if res.DB.Get(ArrayObj("r", 2)) != 5 || res.DB.Get(ArrayObj("r", 3)) != 50 {
		t.Fatalf("row 1 = (%d, %d), want (5, 50)",
			res.DB.Get(ArrayObj("r", 2)), res.DB.Get(ArrayObj("r", 3)))
	}
	// A full relation reports failure.
	full := relationDB([][2]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	res, err = Eval(txn, full, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Log, []int64{0}) {
		t.Fatalf("full relation should report 0: %v", res.Log)
	}
}

// TestLoweredScanEquivalence: the whole scan lowers to pure L and stays
// equivalent on random relations and keys.
func TestLoweredScanEquivalence(t *testing.T) {
	txn := MustParse(selectSumSrc)
	lowered, err := Lower(txn)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		rows := [][2]int64{}
		for i := 0; i < 4; i++ {
			rows = append(rows, [2]int64{int64(rng.Intn(4)), int64(rng.Intn(50))})
		}
		db := relationDB(rows)
		k := int64(rng.Intn(5))
		a, err := Eval(txn, db, k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Eval(lowered, db, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Log, b.Log) {
			t.Fatalf("trial %d: lowered scan diverges: %v vs %v", trial, a.Log, b.Log)
		}
	}
}
