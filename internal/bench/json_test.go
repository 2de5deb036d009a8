package bench

import (
	"bufio"
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTable() *Table {
	return &Table{
		ID:      "Table 9",
		Title:   "Sample",
		Columns: []string{"Policy", "2", "4"},
		Rows: [][]string{
			{"Static", "1.000", "0.600"},
			{"RCB", "0.900", "0.450", "extra"},
			{"Short"},
		},
		Notes: []string{"synthetic"},
	}
}

func TestJSONRecords(t *testing.T) {
	recs := sampleTable().JSONRecords("quick")
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	r := recs[0]
	if r.Table != "Table 9" || r.Scale != "quick" || r.Row != 0 {
		t.Errorf("record identity wrong: %+v", r)
	}
	if r.Cells["Policy"] != "Static" || r.Cells["4"] != "0.600" {
		t.Errorf("cells wrong: %v", r.Cells)
	}
	// Extra cell beyond the header gets a positional key.
	if recs[1].Cells["col3"] != "extra" {
		t.Errorf("overflow cell missing: %v", recs[1].Cells)
	}
	// Short row is padded so every header has a value.
	if v, ok := recs[2].Cells["2"]; !ok || v != "" {
		t.Errorf("short row not padded: %v", recs[2].Cells)
	}
}

func TestWriteJSONIsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteJSON(&buf, "quick"); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var rec RowRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec.Row != lines {
			t.Errorf("line %d has row index %d", lines, rec.Row)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("got %d NDJSON lines, want 3", lines)
	}
}

// TestRealTableJSON round-trips an actual regenerated table, so the JSON
// path is exercised against real experiment output, not just a fixture.
func TestRealTableJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a table")
	}
	sc := Quick()
	tab := Table4(sc)
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf, sc.Name); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != len(tab.Rows) {
		t.Fatalf("got %d lines for %d rows:\n%s", strings.Count(out, "\n"), len(tab.Rows), out)
	}
	var rec RowRecord
	if err := json.Unmarshal([]byte(strings.SplitN(out, "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Table != tab.ID || rec.Scale != "quick" {
		t.Errorf("record = %+v", rec)
	}
}

// TestQuickTablesMD5 pins the paper's results: Tables 1-7 at the quick
// scale, encoded exactly as `tables -quick -json` prints them, must hash to
// the recorded md5. Any change to a virtual clock, count or table cell
// anywhere under the experiments moves the digest.
func TestQuickTablesMD5(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Tables 1-7")
	}
	sc := Quick()
	var buf bytes.Buffer
	for _, tab := range AllTables(sc) {
		if err := tab.WriteJSON(&buf, sc.Name); err != nil {
			t.Fatal(err)
		}
	}
	const want = "549de59e1135aadc6aa07da41e64adba"
	sum := md5.Sum(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Tables 1-7 quick JSON md5 = %s, want %s", got, want)
	}
}
