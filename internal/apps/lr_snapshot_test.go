package apps

import (
	"bytes"
	"encoding/hex"
	"testing"

	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// lrSnapshotGolden is each stateful LR operator's checkpoint after
// lrSnapshotRows, as the map-backed operators wrote it: length-prefixed
// (key, value) pairs in ascending key order, toll_notify's three tables
// one after the other.
var lrSnapshotGolden = map[string]string{
	"las_avg_speed": "0d00000000000000004042598c7e28240c0000000000000001403a3a43fe5c91" +
		"d4000000000000000240481d21ff2e48ea000000000000000340462000000000" +
		"000000000000000004405090000000000100000000000000054035b8d4fdf3b6" +
		"4600000000000000064045dc6a7ef9db240000000000000007404183886594af" +
		"50000000000000000840429d21ff2e48ea000000000000000940488b851eb851" +
		"eb000000000000000a404ba00000000000000000000000000b403a8fdf3b645a" +
		"1e000000000000000c40405c6a7ef9db24",
	"accident_detect": "0d00000000000000000000000000000000000000000000000100000000000000" +
		"0100000000000000640000000000000001000000000000000200000000000000" +
		"c800000000000000010000000000000003000000000000012c00000000000000" +
		"0100000000000000040000000000000190000000000000000000000000000000" +
		"0500000000000001f40000000000000000000000000000000600000000000002" +
		"580000000000000000000000000000000700000000000002bc00000000000000" +
		"0000000000000000080000000000000320000000000000000000000000000000" +
		"0900000000000003840000000000000000000000000000000a00000000000003" +
		"e80000000000000000000000000000000b000000000000044c00000000000000" +
		"01000000000000000c00000000000004b00000000000000001",
	"toll_notify": "0d000000000000000040338000000000000000000000000001403b0000000000" +
		"000000000000000002402e000000000000000000000000000340368000000000" +
		"0000000000000000044025000000000000000000000000000540320000000000" +
		"00000000000000000640398000000000000000000000000007402b0000000000" +
		"00000000000000000840350000000000000000000000000009403c8000000000" +
		"00000000000000000a4030800000000000000000000000000b40380000000000" +
		"00000000000000000c40280000000000000d0000000000000000000000000000" +
		"005c000000000000000100000000000000440000000000000002000000000000" +
		"0053000000000000000300000000000000620000000000000004000000000000" +
		"004a000000000000000500000000000000590000000000000006000000000000" +
		"0041000000000000000700000000000000500000000000000008000000000000" +
		"005f00000000000000090000000000000047000000000000000a000000000000" +
		"0056000000000000000b000000000000003e000000000000000c000000000000" +
		"004d0d0000000000000014010000000000000015010000000000000016010000" +
		"0000000000170100000000000000180100000000000000190100000000000000" +
		"1a01000000000000001b01000000000000001c01000000000000001d01000000" +
		"000000001e01000000000000001f01000000000000002001",
	"accident_notify": "0d00000000000000000100000000000000010100000000000000020100000000" +
		"0000000301000000000000000401000000000000000501000000000000000601" +
		"0000000000000007010000000000000008010000000000000009010000000000" +
		"00000a01000000000000000b01000000000000000c01",
	"account_balance": "0d00000000000000004004000000000000000000000000000140040000000000" +
		"0000000000000000024004000000000000000000000000000340040000000000" +
		"0000000000000000044000000000000000000000000000000540000000000000" +
		"0000000000000000064000000000000000000000000000000740040000000000" +
		"0000000000000000084004000000000000000000000000000940040000000000" +
		"00000000000000000a4004000000000000000000000000000b40000000000000" +
		"00000000000000000c4000000000000000",
}

// lrSnapshotRows feeds op a fixed row sequence that touches its keys in
// an order far from ascending, so only a sorted encoding reproduces the
// golden bytes.
func lrSnapshotRows(t *testing.T, name string, op engine.Operator) {
	t.Helper()
	coll := newDrainCollector()
	in := &tuple.Tuple{}
	for i := int64(0); i < 60; i++ {
		in.Reset()
		key := (i * 7) % 13 // 0 7 1 8 2 9 ...
		switch name {
		case "las_avg_speed":
			in.Stream = lrAvgID
			in.AppendInt(key)
			in.AppendFloat(float64(i%9)*11 + 0.25)
		case "accident_detect", "accident_notify", "account_balance":
			typ := lrTypePosition
			if name == "account_balance" {
				typ = lrTypeBalance
			}
			in.Stream = lrPositionID
			if name == "accident_notify" && i%3 == 0 {
				in.Stream = lrDetectID
				in.AppendInt(key)
				in.AppendInt(1000 + i)
				break
			}
			in.AppendInt(typ)
			in.AppendInt(key)        // vehicle
			in.AppendInt(i % 2 * 40) // speed: every other report stopped
			in.AppendInt(0)
			in.AppendInt(1)
			in.AppendInt(key % 5)   // segment
			in.AppendInt(key * 100) // position: a stopped vehicle stays put
		case "toll_notify":
			switch i % 3 {
			case 0:
				in.Stream = lrLasID
				in.AppendInt(key)
				in.AppendFloat(float64(i) / 2)
			case 1:
				in.Stream = lrCountsID
				in.AppendInt(key)
				in.AppendInt(40 + i)
			default:
				in.Stream = lrDetectID
				in.AppendInt(key + 20)
				in.AppendInt(i)
			}
		}
		in.Event = i
		if err := op.Process(coll, in); err != nil {
			t.Fatal(err)
		}
		coll.Drain()
	}
}

// TestLRSnapshotFramingUnchanged pins the checkpoint bytes of LR's
// non-window stateful operators, so a change to how their state is held
// cannot change what a checkpoint holds: a snapshot written before the
// change restores, and re-snapshots byte-equal.
func TestLRSnapshotFramingUnchanged(t *testing.T) {
	ops := LinearRoad().Operators
	for name, golden := range lrSnapshotGolden {
		t.Run(name, func(t *testing.T) {
			op := ops[name]()
			lrSnapshotRows(t, name, op)
			enc := checkpoint.NewEncoder()
			if err := op.(checkpoint.Snapshotter).Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(enc.Bytes()); got != golden {
				t.Fatalf("snapshot bytes changed:\n got %s\nwant %s", got, golden)
			}
			again := ops[name]().(checkpoint.Snapshotter)
			if err := again.Restore(checkpoint.NewDecoder(enc.Bytes())); err != nil {
				t.Fatal(err)
			}
			enc2 := checkpoint.NewEncoder()
			if err := again.Snapshot(enc2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc2.Bytes(), enc.Bytes()) {
				t.Fatalf("restored state re-snapshots differently:\n got %x\nwant %x", enc2.Bytes(), enc.Bytes())
			}
		})
	}
}
