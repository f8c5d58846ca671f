package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

func intp(v int) *int { return &v }

var requestCases = []TxnRequest{
	{},
	{Class: "Buy17", Args: []int64{2}, Site: intp(1)},
	{Class: "Withdraw", Args: []int64{math.MinInt64, 0, math.MaxInt64}, TimeoutMS: 250},
	{Site: intp(0)},
	{Site: intp(-3), TimeoutMS: -1},
	{Class: "a\"b\\c<d>&e\u2028f\u2029g\x00\b\f\n\r\t\x1f\x7f", Args: []int64{}},
	{Class: "caf\u00e9 \xff\xfe bad utf8 \xe2\x80"},
}

var resultCases = []TxnResult{
	{},
	{Class: "Buy17", Args: []int64{2}, Site: 1, Committed: true, LatencyMS: 0.0123},
	{Class: "Q", Site: -1, Synced: true, Committed: true, LatencyMS: 35.000001, Log: []int64{7, -8, 9}},
	{Class: "E", Args: []int64{1, 2}, LatencyMS: 1e-7, Error: &Error{Code: "aborted", Message: "lock <timeout> & \"retry\"\n"}},
	{LatencyMS: 1e21}, {LatencyMS: -1e-9}, {LatencyMS: 123456789.125}, {LatencyMS: math.SmallestNonzeroFloat64},
	{LatencyMS: math.MaxFloat64}, {LatencyMS: math.Copysign(0, -1)},
	{Class: "\u2028\u00e9\xff", Error: &Error{}},
}

func TestAppendMatchesMarshal(t *testing.T) {
	for _, req := range requestCases {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendTxnRequest(nil, &req); !bytes.Equal(got, want) {
			t.Errorf("AppendTxnRequest(%+v)\n got %s\nwant %s", req, got, want)
		}
		// The envelope a client used to send marshals to the same bytes.
		if env, _ := json.Marshal(TxnEnvelope{TxnRequest: req}); !bytes.Equal(env, want) {
			t.Errorf("envelope of %+v marshals to %s, request to %s", req, env, want)
		}
	}
	for _, res := range resultCases {
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendTxnResult([]byte("x"), &res); !bytes.Equal(got[1:], want) {
			t.Errorf("AppendTxnResult(%+v)\n got %s\nwant %s", res, got[1:], want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := AppendTxnResult(nil, &TxnResult{LatencyMS: f})
		if want := `{"class":"","site":0,"committed":false,"latency_ms":0}`; string(got) != want {
			t.Errorf("latency %v: got %s, want %s", f, got, want)
		}
	}
}

// sameInts compares decoded arrays: an empty array and an absent one are
// the same request, and the scanner does not tell them apart.
func sameInts(a, b []int64) bool {
	return slices.Equal(a, b)
}

func sameRequest(a, b TxnRequest) bool {
	if (a.Site == nil) != (b.Site == nil) || (a.Site != nil && *a.Site != *b.Site) {
		return false
	}
	return a.Class == b.Class && sameInts(a.Args, b.Args) && a.TimeoutMS == b.TimeoutMS
}

func sameResult(a, b TxnResult) bool {
	if (a.Error == nil) != (b.Error == nil) || (a.Error != nil && *a.Error != *b.Error) {
		return false
	}
	return a.Class == b.Class && sameInts(a.Args, b.Args) && a.Site == b.Site &&
		a.Committed == b.Committed && a.Synced == b.Synced && sameInts(a.Log, b.Log) &&
		(a.LatencyMS == b.LatencyMS || (a.LatencyMS != a.LatencyMS && b.LatencyMS != b.LatencyMS))
}

// checkRequest holds ParseTxnRequest against json.Unmarshal on one body,
// except that a body json.Unmarshal accepts with a batch member in it is
// refused.
func checkRequest(t *testing.T, body []byte) {
	t.Helper()
	var want TxnEnvelope
	wantErr := json.Unmarshal(body, &want)
	if len(bytes.Trim(body, " \t\r\n")) == 0 {
		wantErr = nil // the blank body is the empty request
	}
	if wantErr == nil && batchMember(body) {
		wantErr = errBatch
	}
	var got TxnEnvelope
	gotErr := ParseTxnRequest(body, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: ParseTxnRequest error %v, json.Unmarshal error %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: error %q, want %q", body, gotErr, wantErr)
		}
		if wantErr == errBatch && !sameRequest(got.TxnRequest, TxnRequest{}) {
			t.Fatalf("%q: a refused batch left %+v", body, got)
		}
		return
	}
	if !sameRequest(got.TxnRequest, want.TxnRequest) {
		t.Fatalf("%q:\n got %+v\nwant %+v", body, got, want)
	}
	// Decoding over a used envelope gives the same request.
	site := 77
	used := TxnEnvelope{TxnRequest: TxnRequest{Class: "Old", Args: []int64{9, 9, 9}, Site: &site, TimeoutMS: 5}}
	if err := ParseTxnRequest(body, &used); err != nil || !sameRequest(used.TxnRequest, want.TxnRequest) {
		t.Fatalf("%q over a used envelope: %+v (error %v), want %+v", body, used, err, want)
	}
}

// batchMember reports whether a JSON object has a member encoding/json
// would match to a field named batch: the key in any case, escaped or not,
// whatever the value.
func batchMember(body []byte) bool {
	var members map[string]json.RawMessage
	if json.Unmarshal(body, &members) != nil {
		return false
	}
	for k := range members {
		if strings.EqualFold(k, "batch") {
			return true
		}
	}
	return false
}

func checkResult(t *testing.T, body []byte) {
	t.Helper()
	var want TxnResult
	wantErr := json.Unmarshal(body, &want)
	got := TxnResult{Class: "stale", Log: []int64{1}, Error: &Error{Code: "stale"}}
	gotErr := ParseTxnResult(body, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: ParseTxnResult error %v, json.Unmarshal error %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !sameResult(got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", body, got, want)
	}
}

var requestBodies = []string{
	``, ` `, "\n\t\r ", `{}`, ` { } `, `null`, `[]`, `{`, `}`, `{}{}`, `{} x`, `{,}`, `{"site":0,}`,
	`{"class":"Buy0","args":[1],"site":0}`,
	"{\n  \"class\" : \"Buy0\" ,\n  \"args\" : [ 1 , 2 ] ,\n  \"site\" : 1 ,\n  \"timeout_ms\" : 30\n}\n",
	`{"site":0,"class":"X","args":[]}`,
	`{"unknown":{"a":[1,{"b":null}]},"class":"X"}`, `{"class":"X","extra":1}`,
	`{"CLASS":"X"}`, `{"Class":"X","ARGS":[1]}`, `{"cla\u0073s":"X"}`, "{\"cla\u017f\u017f\":\"X\"}",
	`{"class":"a\"b\\c\/d\b\f\n\r\t"}`, `{"class":"\u0041\u00e9\ud83d\ude00"}`, `{"class":"\ud83d"}`,
	`{"class":"caf` + "\u00e9" + `"}`, "{\"class\":\"\xff\"}", "{\"class\":\"a\x01b\"}", "{\"class\":\"a\tb\"}",
	`{"class":"unterminated`, `{"class":"X"`, `{"class":5}`, `{"class":["X"]}`,
	`{"class":null,"args":null,"site":null,"timeout_ms":null}`, `{"site":null}`, `{"class":nul}`, `{"class":nullx}`,
	`{"args":[9223372036854775807,-9223372036854775808]}`,
	`{"args":[9223372036854775808]}`, `{"args":[-9223372036854775809]}`, `{"args":[18446744073709551616]}`,
	`{"args":[1.0]}`, `{"args":[1e2]}`, `{"args":[1E+2]}`, `{"args":[1.5]}`, `{"args":[-0]}`, `{"args":[0]}`,
	`{"args":[01]}`, `{"args":[-]}`, `{"args":[+1]}`, `{"args":[1,]}`, `{"args":[,1]}`, `{"args":[1 2]}`,
	`{"args":[1`, `{"args":1}`, `{"args":["1"]}`, `{"args":[null]}`, `{"args":[true]}`, `{"args":[[1]]}`,
	`{"site":1.0}`, `{"site":1e0}`, `{"site":"1"}`, `{"site":99999999999999999999}`, `{"site":-0}`,
	`{"timeout_ms":-5}`, `{"timeout_ms":0.5}`, `{"timeout_ms":true}`,
	`{"class":"A","class":"B"}`, `{"args":[1,2],"args":null}`, `{"args":[1,2],"args":[3]}`, `{"site":1,"site":null}`,
	`{"batch":[{"class":"A","args":[1]},{"site":1}]}`, `{"class":"S","batch":[]}`, `{"batch":null,"class":"S"}`,
	`{"batch":[{"class":"A"}],"class":"S","site":0}`, `{"batch":{}}`, `{"Batch":[{"class":"A"}]}`,
	`{"batch":null}`, `{"BATCH":1}`, `{"batch":[]}`, `{"batch":[],"site":"1"}`, `{"batch":[}`, `{"batch":[1]}`,
	`{"class":"X"}garbage`, `garbage`, `"class"`, `{"class"}`, `{"class":}`, `{:1}`, `{"class" "X"}`,
	"\ufeff{}", "{\"class\":\"X\"}\x00",
}

func TestParseTxnRequestMatchesUnmarshal(t *testing.T) {
	for _, body := range requestBodies {
		checkRequest(t, []byte(body))
	}
	for _, req := range requestCases {
		body, _ := json.Marshal(req)
		checkRequest(t, body)
	}
}

var resultBodies = []string{
	``, `{}`, `null`, `{"class":"X"`, `{"error":null}`, `{"error":{"code":"aborted","message":"m"}}`,
	`{"class":"Buy0","args":[1],"site":0,"committed":true,"latency_ms":0.0123}`,
	"{\n  \"class\": \"Buy0\",\n  \"args\": [\n    1\n  ],\n  \"site\": 0,\n  \"committed\": true,\n  \"latency_ms\": 0.0123\n}\n",
	`{"class":"X","site":1,"committed":false,"synced":true,"latency_ms":35,"log":[1,2,3]}`,
	`{"class":"X","site":1,"committed":true,"latency_ms":1.5,"error":{"code":"timeout","message":"late"}}`,
	`{"committed":1}`, `{"committed":"true"}`, `{"committed":tru}`, `{"committed":truex}`, `{"synced":null,"committed":null}`,
	`{"latency_ms":0}`, `{"latency_ms":-0}`, `{"latency_ms":-0.0}`, `{"latency_ms":1e3}`, `{"latency_ms":1E-3}`, `{"latency_ms":1.25e+2}`,
	`{"latency_ms":1e999}`, `{"latency_ms":-1e999}`, `{"latency_ms":1e-999}`, `{"latency_ms":1.}`, `{"latency_ms":.5}`,
	`{"latency_ms":+1}`, `{"latency_ms":01}`, `{"latency_ms":1e}`, `{"latency_ms":1e+}`, `{"latency_ms":-}`, `{"latency_ms":0x10}`,
	`{"latency_ms":1_0}`, `{"latency_ms":Inf}`, `{"latency_ms":NaN}`, `{"latency_ms":"1"}`, `{"latency_ms":null}`, `{"latency_ms":1.0000000000000000000000001}`,
	`{"log":[],"args":[]}`, `{"log":null}`, `{"log":[1.5]}`, `{"LOG":[1]}`, `{"log":[1],"log":[2]}`, `{"site":1,"extra":{}}`,
	`{"class":"X"} {"class":"Y"}`, `[{"class":"X"}]`,
}

func TestParseTxnResultMatchesUnmarshal(t *testing.T) {
	for _, body := range resultBodies {
		checkResult(t, []byte(body))
	}
	for _, res := range resultCases {
		body, _ := json.Marshal(res)
		checkResult(t, body)
		indented, _ := json.MarshalIndent(res, "", "  ")
		checkResult(t, append(indented, '\n')) // as a json.Encoder with SetIndent writes it
	}
}

// TestScannerTakesCanonicalBodies pins which bodies stay on the hot path:
// agreeing with encoding/json proves nothing if every body falls back to
// it.
func TestScannerTakesCanonicalBodies(t *testing.T) {
	for body, want := range map[string]bool{
		`{"class":"Buy0","args":[1],"site":0}`:                     true,
		"{ \"site\" : 1 ,\n\"args\":[ 1 , -2 ],\"timeout_ms\":9} ": true,
		`{}`:                        true,
		`{"class":null}`:            true,
		`{"batch":[]}`:              false,
		`{"class":"a\nb"}`:          false,
		`{"Class":"X"}`:             false,
		`{"class":"X","class":"X"}`: false,
		`{"args":[1.0]}`:            false,
	} {
		s := scanner{data: []byte(body)}
		if got := s.txnRequest(new(TxnRequest), "", nil, nil); got != want {
			t.Errorf("scanner takes request %s: %v, want %v", body, got, want)
		}
	}
	for body, want := range map[string]bool{
		`{"class":"Buy0","args":[1],"site":0,"committed":true,"latency_ms":0.0123}`:        true,
		"{\n  \"class\": \"X\",\n  \"site\": 0,\n  \"synced\": true,\n  \"log\": [1]\n}\n": true,
		`{"class":"X","error":{"code":"aborted","message":""}}`:                            false,
		`{"latency_ms":1e999}`: false,
	} {
		s := scanner{data: []byte(body)}
		if got := s.txnResult(new(TxnResult)); got != want {
			t.Errorf("scanner takes result %s: %v, want %v", body, got, want)
		}
	}
}

// TestCodecAllocations pins the codec at no allocation of its own: into a
// buffer with room and over a used envelope a request costs nothing, and
// a result costs only the Class, Args and Log it hands to the caller.
func TestCodecAllocations(t *testing.T) {
	site := 1
	req := TxnRequest{Class: "Buy17", Args: []int64{2, 3}, Site: &site, TimeoutMS: 40}
	res := TxnResult{Class: "Buy17", Args: []int64{2, 3}, Site: 1, Committed: true, Synced: true,
		LatencyMS: 0.0123, Log: []int64{4, 5, 6}}
	buf := make([]byte, 0, 512)
	reqBody, resBody := AppendTxnRequest(nil, &req), AppendTxnResult(nil, &res)
	env := TxnEnvelope{TxnRequest: TxnRequest{Class: "Buy17", Args: make([]int64, 0, 4), Site: new(int)}}
	var out TxnResult
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"AppendTxnRequest", 0, func() { buf = AppendTxnRequest(buf[:0], &req) }},
		{"AppendTxnResult", 0, func() { buf = AppendTxnResult(buf[:0], &res) }},
		{"ParseTxnRequest", 0, func() {
			if err := ParseTxnRequest(reqBody, &env); err != nil || env.Class != "Buy17" || len(env.Args) != 2 || *env.Site != 1 {
				t.Fatalf("ParseTxnRequest: %+v, %v", env, err)
			}
		}},
		{"ParseTxnResult", 3, func() {
			if err := ParseTxnResult(resBody, &out); err != nil || !sameResult(out, res) {
				t.Fatalf("ParseTxnResult: %+v, %v", out, err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != c.want {
			t.Errorf("%s: %v allocs per run, want %v", c.name, got, c.want)
		}
	}
}

func FuzzParseTxnRequest(f *testing.F) {
	for _, body := range requestBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkRequest(t, body) })
}

func FuzzParseTxnResult(f *testing.F) {
	for _, body := range resultBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkResult(t, body) })
}

// FuzzTxnResultRoundTrip builds a result from the fuzzed fields, and
// checks that it encodes to json.Marshal's bytes and that those bytes
// decode to what json.Unmarshal makes of them.
func FuzzTxnResultRoundTrip(f *testing.F) {
	f.Add("Buy17", int64(2), uint8(1), 1, true, false, 0.0123, int64(0), uint8(0), "", "")
	f.Add("a<b>\u2028\xff", int64(math.MinInt64), uint8(3), -1, false, true, 1e-7, int64(math.MaxInt64), uint8(2), "aborted", "x\ny")
	f.Fuzz(func(t *testing.T, class string, arg int64, nArgs uint8, site int, committed, synced bool,
		latency float64, logged int64, nLog uint8, code, message string) {
		res := TxnResult{Class: class, Site: site, Committed: committed, Synced: synced, LatencyMS: latency}
		for i := 0; i < int(nArgs%5); i++ {
			res.Args = append(res.Args, arg+int64(i))
		}
		for i := 0; i < int(nLog%5); i++ {
			res.Log = append(res.Log, logged-int64(i))
		}
		if code != "" || message != "" {
			res.Error = &Error{Code: code, Message: message}
		}
		got := AppendTxnResult(nil, &res)
		want, err := json.Marshal(res)
		if err != nil {
			if !strings.Contains(err.Error(), "unsupported value") {
				t.Fatal(err)
			}
			res.LatencyMS = 0 // json.Marshal refuses NaN and Inf; the codec writes 0
			want, _ = json.Marshal(res)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendTxnResult(%+v)\n got %s\nwant %s", res, got, want)
		}
		checkResult(t, got)
		if res.Error == nil && site >= 0 {
			// The same fields as a request: timeout from the log value.
			req := TxnRequest{Class: class, Args: res.Args, Site: &site, TimeoutMS: logged}
			body := AppendTxnRequest(nil, &req)
			if want, _ := json.Marshal(req); !bytes.Equal(body, want) {
				t.Fatalf("AppendTxnRequest(%+v)\n got %s\nwant %s", req, body, want)
			}
			checkRequest(t, body)
		}
	})
}
