package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math"
	"slices"
	"testing"
)

var classRequestCases = []ClassRequest{
	{},
	{L: "transaction Reg7(n) { v := read(item7); if (v - n > 0) then write(item7 = v - n) else write(item7 = v - n + 100) }",
		Bounds: map[string][2]int64{"n": {1, 3}}, Initial: map[string]int64{"item7": 100}},
	{Name: "T", L: "transaction T(a, b) {\n\tskip // <&>\n}", Bounds: map[string][2]int64{"b": {math.MinInt64, math.MaxInt64}, "a": {0, 0}},
		Initial: map[string]int64{"z": -1, "a": 2, "m": math.MaxInt64, "B": 0}},
	{Name: "empty maps", L: "x", Bounds: map[string][2]int64{}, Initial: map[string]int64{}},
	{Name: "caf\u00e9 \xff \u2028", L: "a\"b\\c/d\b\f\n\r\t\x00\x1f\x7f", Initial: map[string]int64{"k\u00e9y": 1, "<k>": 2, "": 3}},
	{Name: "Q", SQL: "CREATE TABLE t (key, val) SIZE 2\nSELECT SUM(val) FROM t WHERE key = @k",
		Bounds: map[string][2]int64{"k": {1, 2}}, Rows: map[string][][]int64{"t": {{1, 10}, {2, 20}}, "u": nil}},
	{L: "only rows", Rows: map[string][][]int64{"t": {nil, {}}}},
	{Bounds: map[string][2]int64{"k0": {}, "k1": {}, "k2": {}, "k3": {}, "k4": {}, "k5": {}, "k6": {}, "k7": {}, "k8": {}, "k9": {}}},
}

var classInfoCases = []ClassInfo{
	{},
	{Name: "Reg7", Params: []string{"n"}, Objects: []string{"item7"},
		Treaties: []string{"site 0: -item7 + -item7@d0 + 4 <= 0", "site 1: -item7@d1 + -2 <= 0"}},
	{Name: "P", Params: []string{"a", "b"}, Objects: []string{"x", "y", "z"}, Pinned: true,
		PinReason: "symbolic table has 5000 rows (> 4096)", Treaties: []string{"site 0: x + -3 = 0 && y = 0"}},
	{Name: "none", Params: []string{}, Objects: nil, Treaties: []string{}},
	{Name: "caf\u00e9", Params: []string{"\xff"}, PinReason: "a\"b\\c<d>&e\u2028\n\x00", Treaties: []string{"", "\t"}},
	{PinReason: "unpinned reason"},
}

// indented is v as the server writes it.
func indented(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAppendClassMatchesEncoding(t *testing.T) {
	for _, req := range classRequestCases {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendClassRequest([]byte("x"), &req); !bytes.Equal(got[1:], want) {
			t.Errorf("AppendClassRequest(%+v)\n got %s\nwant %s", req, got[1:], want)
		}
		// The envelope marshals to the same bytes.
		if env, _ := json.Marshal(ClassEnvelope{ClassRequest: req}); !bytes.Equal(env, want) {
			t.Errorf("envelope of %+v marshals to %s, request to %s", req, env, want)
		}
	}
	for _, info := range classInfoCases {
		want := indented(t, info)
		if got := AppendClassInfo([]byte("x"), &info); !bytes.Equal(got[1:], want) {
			t.Errorf("AppendClassInfo(%+v)\n got %s\nwant %s", info, got[1:], want)
		}
	}
}

func sameClassRequest(a, b ClassRequest) bool {
	rows := func(x, y [][]int64) bool { return slices.EqualFunc(x, y, slices.Equal[[]int64]) }
	return a.Name == b.Name && a.L == b.L && a.SQL == b.SQL && maps.Equal(a.Bounds, b.Bounds) &&
		maps.Equal(a.Initial, b.Initial) && maps.EqualFunc(a.Rows, b.Rows, rows) &&
		(a.Bounds == nil) == (b.Bounds == nil) && (a.Initial == nil) == (b.Initial == nil)
}

func sameClassInfo(a, b ClassInfo) bool {
	return a.Name == b.Name && slices.Equal(a.Params, b.Params) && slices.Equal(a.Objects, b.Objects) &&
		a.Pinned == b.Pinned && a.PinReason == b.PinReason && slices.Equal(a.Treaties, b.Treaties)
}

// checkClassRequest holds ParseClassRequest against the json.Decoder the
// handler ran on these bodies, on one body.
func checkClassRequest(t *testing.T, body []byte) {
	t.Helper()
	var want ClassEnvelope
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if errors.Is(wantErr, io.EOF) {
		wantErr = nil // the handler takes an empty body for the empty request
	}
	check := func(got ClassEnvelope, gotErr error, how string) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q %s: ParseClassRequest error %v, json.Decoder error %v", body, how, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !sameClassRequest(got.ClassRequest, want.ClassRequest) || !slices.EqualFunc(got.Batch, want.Batch, sameClassRequest) {
			t.Fatalf("%q %s:\n got %+v\nwant %+v", body, how, got, want)
		}
	}
	var got ClassEnvelope
	err := ParseClassRequest(body, &got)
	check(got, err, "into a zero envelope")
	used := ClassEnvelope{ClassRequest: ClassRequest{Name: "Old", L: "old", SQL: "old",
		Bounds: map[string][2]int64{"stale": {1, 2}}, Initial: map[string]int64{"stale": 3},
		Rows: map[string][][]int64{"stale": {{1}}}}, Batch: []ClassRequest{{Name: "B"}}}
	err = ParseClassRequest(body, &used)
	check(used, err, "over a used envelope")
}

func checkClassInfo(t *testing.T, body []byte) {
	t.Helper()
	var want ClassInfo
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got := ClassInfo{Name: "stale", Params: []string{"stale"}, Pinned: true, PinReason: "stale", Treaties: []string{"stale"}}
	gotErr := ParseClassInfo(body, &got)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q: ParseClassInfo error %v, json.Decoder error %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !sameClassInfo(got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", body, got, want)
	}
}

var classRequestBodies = []string{
	``, ` `, "\n\t\r ", `{}`, ` { } `, `null`, `[]`, `{`, `}`, `{}{}`, `{} x`, `{,}`, `{"l":"x",}`, `garbage`, "\ufeff{}",
	`{"l":"transaction T() { skip }","bounds":{"n":[1,3]},"initial":{"x":5}}`,
	"{\n \"name\" : \"T\" ,\n \"l\" : \"x\" ,\n \"bounds\" : { \"a\" : [ 1 , 2 ] , \"b\" : [ -3 , 4 ] } ,\n \"initial\" : { \"x\" : 1 , \"y\" : -2 }\n}\n",
	`{"l":"a \u003e b \u0026\u0026 c \u003c d"}`, `{"l":"a\"b\\c\/d\b\f\n\r\t"}`, `{"l":"\u0041\u00e9\ud83d\ude00"}`, `{"l":"\ud83d"}`,
	`{"l":"\u004a\u004A\u007f\u0000"}`, `{"l":"\u0080"}`, `{"l":"\u00G0"}`, `{"l":"\u00"}`, `{"l":"\u003"}`, `{"l":"\x"}`, `{"l":"\`,
	`{"l":"caf` + "\u00e9" + `"}`, "{\"l\":\"\xff\"}", "{\"l\":\"a\x01b\"}", "{\"l\":\"a\tb\"}", "{\"l\":\"a\x7fb\"}",
	`{"l":"unterminated`, `{"l":"x"`, `{"l":5}`, `{"l":["x"]}`, `{"l":null,"name":null,"bounds":null,"initial":null}`,
	`{"L":"x"}`, `{"Name":"x"}`, `{"\u006c":"x"}`, `{"l":"x","l":"y"}`, `{"l":"x","extra":1}`, `{"unknown":{"a":[1,{"b":null}]},"l":"x"}`,
	`{"bounds":{}}`, `{"initial":{}}`, `{"bounds":{},"initial":{},"l":"x"}`, `{"bounds":{"n":[1,3],}}`, `{"bounds":{,}}`, `{"bounds":{"n":[1,3]`,
	`{"bounds":{"n":[1]}}`, `{"bounds":{"n":[]}}`, `{"bounds":{"n":[1,2,3]}}`, `{"bounds":{"n":null}}`, `{"bounds":{"n":[null,2]}}`,
	`{"bounds":{"n":[1.0,2]}}`, `{"bounds":{"n":[1,2e0]}}`, `{"bounds":{"n":[1.5,2]}}`, `{"bounds":{"n":["1",2]}}`, `{"bounds":{"n":{"0":1}}}`,
	`{"bounds":{"n":[1,2],"n":[3,4]}}`, `{"bounds":{"n":[1,2]},"bounds":{"m":[3,4]}}`, `{"bounds":{"N":[1,2],"n":[3,4]}}`,
	`{"bounds":{"a\u0062":[1,2]}}`, `{"bounds":{"caf` + "\u00e9" + `":[1,2]}}`, `{"bounds":[]}`, `{"bounds":"x"}`, `{"bounds":{"n":[1 2]}}`, `{"bounds":{"n" [1,2]}}`,
	`{"bounds":{"n":[9223372036854775807,-9223372036854775808]}}`, `{"bounds":{"n":[9223372036854775808,0]}}`, `{"bounds":{"n":[01,2]}}`, `{"bounds":{"n":[-0,+1]}}`,
	`{"initial":{"x":1,"x":2}}`, `{"initial":{"x":1.5}}`, `{"initial":{"x":1e2}}`, `{"initial":{"x":"1"}}`, `{"initial":{"x":null}}`, `{"initial":{"x":true}}`,
	`{"initial":{"x":18446744073709551616}}`, `{"initial":{"x":1,}}`, `{"initial":{"x":1 "y":2}}`, `{"initial":{"":0}}`, `{"initial":{"x":[1]}}`, `{"initial":[1]}`,
	`{"sql":"CREATE TABLE t (key, val) SIZE 2","name":"Q","rows":{"t":[[1,10],[2,20]]}}`, `{"rows":{"t":null}}`, `{"rows":{"t":[null,[]]}}`, `{"rows":null}`, `{"sql":null}`,
	`{"batch":[{"l":"a","bounds":{"n":[1,3]}},{"name":"Q","sql":"s"}]}`, `{"l":"S","batch":[]}`, `{"batch":null,"l":"S"}`, `{"batch":{}}`, `{"Batch":[{"l":"a"}]}`,
	`{"l":"x"}garbage`, `{"l":"x"} {"l":"y"}`, `{"l":"x"}}`, "{\"l\":\"x\"}\x00", `{"l":"x"}` + "\n\n", `"l"`, `{"l"}`, `{"l":}`, `{:1}`, `{"l" "x"}`,
}

var classInfoBodies = []string{
	``, ` `, `{}`, `null`, `[]`, `{"name":"X"`, `{"name":"X"} trailing`, `{"name":"X"} {"name":"Y"}`, `[{"name":"X"}]`,
	`{"name":"Reg7","params":["n"],"objects":["item7"],"treaties":["site 0: -item7 + 4 \u003c= 0","site 1: -item7@d1 \u003c= 0"]}`,
	"{\n  \"name\": \"Reg7\",\n  \"params\": [\n    \"n\"\n  ],\n  \"pinned\": true,\n  \"pin_reason\": \"why\",\n  \"treaties\": [\n    \"a\",\n    \"b\"\n  ]\n}\n",
	`{"params":[],"objects":[],"treaties":[]}`, `{"params":null,"objects":null,"treaties":null,"name":null,"pinned":null,"pin_reason":null}`,
	`{"params":["a",]}`, `{"params":[,"a"]}`, `{"params":["a" "b"]}`, `{"params":["a"`, `{"params":[1]}`, `{"params":[null]}`, `{"params":"a"}`, `{"params":[["a"]]}`,
	`{"params":["a\"b\\c\/d\b\f\n\r\t\u0026"]}`, `{"params":["\u00e9"]}`, `{"params":["\ud83d\ude00"]}`, `{"params":["caf` + "\u00e9" + `"]}`, "{\"params\":[\"\xff\"]}",
	`{"params":["a\x"]}`, `{"params":["a","b\u00"]}`, `{"params":["ok","a` + "\x01" + `"]}`,
	`{"pinned":1}`, `{"pinned":"true"}`, `{"pinned":tru}`, `{"pinned":false}`, `{"Pinned":true}`, `{"PARAMS":["a"]}`, `{"params":["a"],"params":["b"]}`,
	`{"name":"X","extra":{}}`, `{"name":5}`, `{"pin_reason":["x"]}`, `{"name":"a\u003cb"}`, `{"classes":[{"name":"X"}]}`, `{"error":{"code":"conflict","message":"m"}}`,
}

func TestParseClassMatchesDecoder(t *testing.T) {
	for _, body := range classRequestBodies {
		checkClassRequest(t, []byte(body))
	}
	for _, req := range classRequestCases {
		body, _ := json.Marshal(req)
		checkClassRequest(t, body)
		checkClassRequest(t, indented(t, req))
	}
	for _, body := range classInfoBodies {
		checkClassInfo(t, []byte(body))
	}
	for _, info := range classInfoCases {
		body, _ := json.Marshal(info)
		checkClassInfo(t, body)
		checkClassInfo(t, indented(t, info))
	}
}

// TestScannerTakesCanonicalClassBodies pins which bodies stay off
// encoding/json: agreeing with it proves nothing if every body falls back
// to it.
func TestScannerTakesCanonicalClassBodies(t *testing.T) {
	reg, _ := json.Marshal(classRequestCases[1])
	for body, want := range map[string]bool{
		string(reg): true, // \u003e for the guard's > included
		`{"name":"T","l":"a\nb","bounds":{"a":[1,2],"b":[3,4]},"initial":{}}`: true,
		`{}`:                          true,
		`{"l":null}`:                  true,
		`{"batch":[]}`:                false,
		`{"sql":"s","name":"Q"}`:      false,
		`{"rows":{}}`:                 false,
		`{"l":"caf` + "\u00e9" + `"}`: false,
		`{"l":"\u00e9"}`:              false,
		`{"L":"x"}`:                   false,
		`{"l":"x","l":"x"}`:           false,
		`{"bounds":{"n":[1,2,3]}}`:    false,
		`{"bounds":{"n":null}}`:       false,
		`{"initial":{"x":1,"x":1}}`:   false,
		`{"initial":{"a\u0062":1}}`:   false,
		`{"l":"x"} `:                  true,
		`{"l":"x"} {"l":"y"}`:         false,
	} {
		s := scanner{data: []byte(body)}
		if got := s.classRequest(new(ClassRequest), nil, nil); got != want {
			t.Errorf("scanner takes class request %s: %v, want %v", body, got, want)
		}
	}
	for body, want := range map[string]bool{
		string(indented(t, classInfoCases[1])):        true, // \u003c= in every treaty included
		string(indented(t, classInfoCases[2])):        true,
		`{"name":"X","params":[],"pinned":false}`:     true,
		`{"name":"X","classes":[]}`:                   false,
		`{"name":"caf` + "\u00e9" + `"}`:              false,
		`{"params":["a"],"params":["a"]}`:             false,
		`{"error":{"code":"conflict","message":"m"}}`: false,
	} {
		s := scanner{data: []byte(body)}
		if got := s.classInfo(new(ClassInfo)); got != want {
			t.Errorf("scanner takes class info %s: %v, want %v", body, got, want)
		}
	}
}

// TestClassCodecAllocations pins the codec at no allocation of its own:
// into a buffer with room both messages cost nothing to write, and what
// reading them costs is what they hand to the caller — a request over a
// used envelope its source and its keys, a reply its strings and its three
// lists (the runtime has every one-letter string, so "n" is free).
func TestClassCodecAllocations(t *testing.T) {
	req, info := classRequestCases[1], classInfoCases[1]
	buf := make([]byte, 0, 1024)
	reqBody, infoBody := AppendClassRequest(nil, &req), AppendClassInfo(nil, &info)
	env := ClassEnvelope{ClassRequest: ClassRequest{Bounds: map[string][2]int64{"n": {}}, Initial: map[string]int64{"item0": 0}}}
	bounds, initial := env.Bounds, env.Initial
	var out ClassInfo
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"AppendClassRequest", 0, func() { buf = AppendClassRequest(buf[:0], &req) }},
		{"AppendClassInfo", 0, func() { buf = AppendClassInfo(buf[:0], &info) }},
		{"ParseClassRequest", 2, func() {
			env.Bounds, env.Initial = bounds, initial
			if err := ParseClassRequest(reqBody, &env); err != nil || !sameClassRequest(env.ClassRequest, req) {
				t.Fatalf("ParseClassRequest: %+v, %v", env, err)
			}
		}},
		{"ParseClassInfo", 7, func() {
			if err := ParseClassInfo(infoBody, &out); err != nil || !sameClassInfo(out, info) {
				t.Fatalf("ParseClassInfo: %+v, %v", out, err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != c.want {
			t.Errorf("%s: %v allocs per run, want %v", c.name, got, c.want)
		}
	}
}

// FuzzClassCodec reads the fuzzed bytes as both messages, holding each
// Parse to the json.Decoder, then builds both messages from pieces of the
// input, holding each Append to encoding/json's bytes and those bytes to
// the round trip.
func FuzzClassCodec(f *testing.F) {
	for _, body := range classRequestBodies {
		f.Add([]byte(body))
	}
	for _, body := range classInfoBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkClassRequest(t, body)
		checkClassInfo(t, body)

		// Cut the input into strings and numbers.
		var texts []string
		var nums []int64
		for i, part := range bytes.Split(body, []byte{','}) {
			texts = append(texts, string(part))
			nums = append(nums, int64(len(part))*int64(i-3)*1_000_003)
		}
		at := func(i int) string { return texts[i%len(texts)] }
		req := ClassRequest{Name: at(0), L: at(1)}
		if len(texts) > 2 {
			req.Bounds, req.Initial = map[string][2]int64{}, map[string]int64{}
			for i := 2; i < len(texts); i++ {
				req.Bounds[texts[i]] = [2]int64{nums[i], -nums[i-1]}
				req.Initial[texts[len(texts)-i]] = nums[i]
			}
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendClassRequest(nil, &req); !bytes.Equal(got, want) {
			t.Fatalf("AppendClassRequest(%+v)\n got %s\nwant %s", req, got, want)
		}
		checkClassRequest(t, want)

		info := ClassInfo{Name: at(1), Pinned: len(body)%2 == 1, PinReason: at(2)}
		for i := range texts {
			switch i % 3 {
			case 0:
				info.Params = append(info.Params, texts[i])
			case 1:
				info.Objects = append(info.Objects, texts[i])
			default:
				info.Treaties = append(info.Treaties, texts[i])
			}
		}
		want = indented(t, info)
		if got := AppendClassInfo(nil, &info); !bytes.Equal(got, want) {
			t.Fatalf("AppendClassInfo(%+v)\n got %s\nwant %s", info, got, want)
		}
		checkClassInfo(t, want)
	})
}
