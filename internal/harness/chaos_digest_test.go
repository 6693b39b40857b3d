package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gcsteering/internal/cluster"
)

// chaosDigests pins the fleet router's full output for every chaos cell at
// 400 requests: the sha256 of the merged JSONL trace and of
// ClusterResults.String(). all_400.json pins only the grid's aggregates;
// these digests also pin failover, failback, re-replication, mirror legs
// and link-slowdown timing. A change that means to move the router's
// behaviour updates them together with CHANGES.md.
var chaosDigests = map[string][2]string{
	"crash/no-repl": {
		"cde10a9fc81ee35dc759f4529ac4ff176cd921763aa2b65ed02a3d694c3ae527",
		"4c2fdf52cbabddf58e5f04d4fdb0bcd6f0715225a41d97f7db13df71f179a12b",
	},
	"crash/replicated": {
		"e350764f261e6201b5940008ff9d449d8aab5bb1cd256e82123860e69801d3f7",
		"d45b881b2e63360407ecc3e112f1475dda63b477dbbd105edbc0c44da6fb47ed",
	},
	"perm-crash/no-repl": {
		"511fc97798bd9e2d20a473c0bbc27119bac7ce9f61824a98fb5e0d4bc923855b",
		"a7670cb4bdb993b66dfd5270aa9551875f161ee265d9c1e127a33aabc217208f",
	},
	"perm-crash/replicated": {
		"ccb53beeb3a7f59393399c54c47f2ab4e5721032eafdbb46f55840997e999464",
		"b49b494424509f8f9e9e822d9fb52341eaf0806ee0943ce1585d97569b49826a",
	},
	"chaos-storm/no-repl": {
		"05569c2b889850440ad3e54a39117868ba137e8bd9374f518218dfc7791d8e2e",
		"9586d7651d44c9053ae002f181d3b561b6ba976e09caf106ca1195181e4f4e18",
	},
	"chaos-storm/replicated": {
		"4d3558c60a42d8779e585fbf788712e62f6d3510788a0f31a5fc7fe8266029e5",
		"8ce3b3d23b9548f4878be4623290563bac3e029aebe41de2f1a4f7ddb81cfa64",
	},
}

func TestChaosRouterDigests(t *testing.T) {
	o := tinyOptions()
	o.MaxRequests = 400
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, sc := range chaosScenarios() {
		for _, repl := range []bool{false, true} {
			name := sc.name + "/no-repl"
			if repl {
				name = sc.name + "/replicated"
			}
			c := chaosConfig(o, sc, repl)
			var buf bytes.Buffer
			c.Trace = &buf
			r, err := cluster.Run(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := [2]string{sum(buf.Bytes()), sum([]byte(r.String()))}
			if want := chaosDigests[name]; got != want {
				t.Errorf("%s: digests (trace, report) = %q, want %q", name, got, want)
			}
		}
	}
}
