package fragment_test

import (
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/segstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// TestWALLogsDecodedFramesWithoutBuilding: fragments decoded off the wire
// are logged and then stored without building their payloads, and the log
// replays them byte for byte — frames spelled as no encoder would
// included — still unbuilt.
func TestWALLogsDecodedFramesWithoutBuilding(t *testing.T) {
	structure := tagstruct.MustParseString(`<stream:structure><tag type="snapshot" id="1" name="r"><tag type="temporal" id="2" name="a"/></tag></stream:structure>`)
	frames := []string{
		`<filler id="0" tsid="1" validTime="2004-01-01T00:00:00" seq="1"><r><hole id="5" tsid="2"/></r></filler>`,
		`<filler tsid='2' id="5" validTime="2004-01-01T00:00:00" seq="2"><a k='1'>one &amp; <![CDATA[two]]></a></filler>`,
		`<filler id="5" tsid="2" validTime="2004-01-01T01:00:00" seq="3">  <a>three</a> </filler>`,
	}
	dir := t.TempDir()
	seg, _, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(structure)
	var dec xmldom.Decoder
	for _, frame := range frames {
		el, err := dec.Scan(frame + "<!-- not the frame's -->")
		if err != nil {
			t.Fatal(err)
		}
		f, err := fragment.FromScanned(el)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Append(f); err != nil {
			t.Fatal(err)
		}
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
		if fragment.Built(f) {
			t.Fatalf("ingesting %s built its payload", frame)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	again, _, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	replayed, err := again.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(frames) {
		t.Fatalf("replayed %d frames, logged %d", len(replayed), len(frames))
	}
	for i, f := range replayed {
		if f.String() != frames[i] || fragment.Built(f) {
			t.Fatalf("frame %d replays as %q (built %v), was logged as %q", i, f, fragment.Built(f), frames[i])
		}
	}
}
