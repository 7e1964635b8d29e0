package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"nimbus/internal/registry"
)

// post sends a raw JSON body and returns the status code.
func post(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestListingOverCapIs400(t *testing.T) {
	srv, _, _ := newMultiServer(t)
	c := NewClient(srv.URL)
	for _, edit := range []func(*registry.Spec){
		func(s *registry.Spec) { s.Grid = registry.MaxGrid + 1 },
		func(s *registry.Spec) { s.Samples = registry.MaxSamples + 1 },
		func(s *registry.Spec) { s.Rows = registry.MaxRows + 1 },
	} {
		req := cheapListRequest("capped", 1)
		edit(&req.Spec)
		if _, err := c.ListDataset(context.Background(), req); !isStatus(err, http.StatusBadRequest) {
			t.Fatalf("spec %+v: %v, want 400", req.Spec, err)
		}
	}
}

func TestOversizedCSVUploadIs413(t *testing.T) {
	defer func(n int64) { maxListBody = n }(maxListBody)
	maxListBody = 4 << 10
	srv, r, _ := newMultiServer(t)

	csv := "x1,y\n" + strings.Repeat("1,2\n", 2<<10) // 8 KiB, over the cap
	body, err := json.Marshal(ListDatasetRequest{
		Spec: registry.Spec{ID: "big", CSV: true, Task: "regression", Target: "y", Grid: 4, Samples: 4},
		Data: csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := post(t, srv.URL+"/api/v1/datasets", string(body)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", code)
	}
	if r.Count() != 0 {
		t.Fatal("an oversized upload listed a market")
	}
}

func TestOversizedBuyBodyIs413(t *testing.T) {
	srv, _, _ := newMultiServer(t)
	if _, err := NewClient(srv.URL).ListDataset(context.Background(), cheapListRequest("acme", 7)); err != nil {
		t.Fatal(err)
	}
	padded := `{"offering":"acme/linear-regression","loss":"` + strings.Repeat("s", int(maxBuyBody)) +
		`","option":"quality","value":2}`
	small := `{"offering":"acme/linear-regression","loss":"squared","option":"quality","value":2}`
	for _, route := range []string{"/api/v1/buy", "/api/v1/datasets/acme/buy"} {
		if code := post(t, srv.URL+route, padded); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized buy: status %d, want 413", route, code)
		}
		if code := post(t, srv.URL+route, small); code != http.StatusOK {
			t.Fatalf("%s: ordinary buy: status %d", route, code)
		}
	}
}
