package serve

import (
	"bytes"
	"io"
	"log"
	"mime/multipart"
	"sync"
	"testing"

	"github.com/nwca/broadband/internal/dataset"
	"github.com/nwca/broadband/internal/synth"
)

// The shared test world: built once per process at bench-smoke scale.
var (
	worldOnce sync.Once
	worldData *dataset.Dataset
	worldErr  error
)

func testWorld(t *testing.T) *dataset.Dataset {
	t.Helper()
	worldOnce.Do(func() {
		// The bbscenario smoke scale: the smallest world the full registry
		// is known to run at (Fig. 3's class split needs the population).
		w, err := synth.Build(synth.Config{
			Seed: 20140705, Users: 1000, FCCUsers: 250, Days: 2,
			SwitchTarget: 200, MinPerCountry: 10,
		})
		if err != nil {
			worldErr = err
			return
		}
		worldData = &w.Data
	})
	if worldErr != nil {
		t.Fatalf("build test world: %v", worldErr)
	}
	return worldData
}

// worldCSV renders the test world's three tables once.
var (
	csvOnce                       sync.Once
	usersCSV, switchCSV, plansCSV []byte
)

func worldTables(t *testing.T) (users, switches, plans []byte) {
	t.Helper()
	d := testWorld(t)
	csvOnce.Do(func() {
		var u, s, p bytes.Buffer
		if err := dataset.WriteAll(&u, d.Users); err != nil {
			worldErr = err
			return
		}
		if err := dataset.WriteAll(&s, d.Switches); err != nil {
			worldErr = err
			return
		}
		if err := dataset.WriteAll(&p, d.Plans); err != nil {
			worldErr = err
			return
		}
		usersCSV, switchCSV, plansCSV = u.Bytes(), s.Bytes(), p.Bytes()
	})
	if worldErr != nil {
		t.Fatalf("render test world: %v", worldErr)
	}
	return usersCSV, switchCSV, plansCSV
}

// multipartUpload assembles a panel upload body. parts maps part name
// (e.g. "users.csv" or "users.csv.gz") to content.
func multipartUpload(t *testing.T, parts map[string][]byte, order ...string) (body []byte, contentType string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if len(order) == 0 {
		for name := range parts {
			order = append(order, name)
		}
	}
	for _, name := range order {
		fw, err := mw.CreateFormFile(name, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(fw, bytes.NewReader(parts[name])); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// cleanUploadBody is the well-formed three-table upload.
func cleanUploadBody(t *testing.T) ([]byte, string) {
	u, s, p := worldTables(t)
	return multipartUpload(t, map[string][]byte{
		"users.csv": u, "switches.csv": s, "plans.csv": p,
	}, "users.csv", "switches.csv", "plans.csv")
}

// quietLogger suppresses server-side diagnostics in tests that
// deliberately provoke them.
func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }
