package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/pricing"
)

// On-disk layout, one directory per tenant under Config.Root:
//
//	<root>/<id>/manifest.json  - the normalized Spec (rebuild recipe)
//	<root>/<id>/dataset.csv    - raw upload, CSV-sourced tenants only
//	<root>/<id>/curves.json    - error-curve cache (safe to delete)
//	<root>/<id>/journal/       - the tenant's own write-ahead journal
//	<root>/.delisted/<id>-<n>  - archived tenants (renamed, never deleted)
//
// curves.json memoizes the tenant's error transformations under content
// keys (pricing.CurveCache), so recovery skips computing them again. It
// is only ever a shortcut: a missing,
// damaged or stale file costs one recompute and a rewrite, never a failed
// Open or a different price. It lives outside journal/ so the journal
// directory stays the ledger alone.
//
// Journals are isolated per tenant on purpose: one tenant's fsync cadence,
// segment churn or corruption cannot stall or poison another's, Delist can
// compact and archive a single directory atomically, and recovery is an
// independent per-tenant replay — a torn tail in one journal truncates
// that tenant only. The price is one open segment file per live market,
// bounded by Config.MaxMarkets.

const (
	manifestFile = "manifest.json"
	datasetFile  = "dataset.csv"
	curvesFile   = "curves.json"
	journalDir   = "journal"
	archiveRoot  = ".delisted"
)

// tenantDir is the live directory for a tenant.
func tenantDir(root, id string) string { return filepath.Join(root, id) }

// writeManifest persists the normalized spec atomically (temp file, fsync,
// rename) so a crash mid-write leaves the old manifest or the new one.
func writeManifest(dir string, spec Spec) error {
	return journal.WriteFileAtomic(journal.OSFS{}, filepath.Join(dir, manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(spec)
	})
}

// readManifest loads and re-validates a tenant's spec.
func readManifest(dir string) (Spec, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("registry: parsing %s: %w", filepath.Join(dir, manifestFile), err)
	}
	if spec.Version != specVersion {
		return Spec{}, fmt.Errorf("registry: %s: manifest version %d, this build reads %d", dir, spec.Version, specVersion)
	}
	return spec.normalize()
}

// persistTenant creates the tenant directory and writes the manifest plus,
// for CSV sources, the raw dataset bytes.
func persistTenant(root string, spec Spec, csvData []byte) error {
	dir := tenantDir(root, spec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("registry: creating %s: %w", dir, err)
	}
	if spec.CSV {
		err := journal.WriteFileAtomic(journal.OSFS{}, filepath.Join(dir, datasetFile), func(w io.Writer) error {
			_, werr := w.Write(csvData)
			return werr
		})
		if err != nil {
			return err
		}
	}
	return writeManifest(dir, spec)
}

// readCurves loads a tenant's curve cache. A missing or undecodable file
// yields an empty cache plus the reason, for the recovery log line; the
// cache never fails recovery.
func readCurves(dir string) (*pricing.CurveCache, error) {
	data, err := os.ReadFile(filepath.Join(dir, curvesFile))
	if err != nil {
		return pricing.NewCurveCache(), err
	}
	c, err := pricing.DecodeCurveCache(data)
	if err != nil {
		return pricing.NewCurveCache(), err
	}
	return c, nil
}

// writeCurves persists a tenant's curve cache atomically.
func writeCurves(dir string, c *pricing.CurveCache) error {
	return journal.WriteFileAtomic(journal.OSFS{}, filepath.Join(dir, curvesFile), c.Encode)
}

// removeTenantDir erases a half-created tenant directory after a failed
// List; live tenants are archived by archiveTenant, never removed.
func removeTenantDir(root, id string) error {
	return os.RemoveAll(tenantDir(root, id))
}

// archiveTenant moves a delisted tenant's directory under
// <root>/.delisted/, picking the first free "<id>-<n>" slot rather than a
// timestamp so the registry stays wall-clock free and repeated
// list/delist cycles of the same ID keep every ledger. The rename is
// atomic within the filesystem, so a crash leaves the tenant either live
// or archived, never both.
func archiveTenant(root, id string) error {
	arch := filepath.Join(root, archiveRoot)
	if err := os.MkdirAll(arch, 0o755); err != nil {
		return fmt.Errorf("registry: creating archive dir: %w", err)
	}
	for n := 1; ; n++ {
		dst := filepath.Join(arch, fmt.Sprintf("%s-%d", id, n))
		if _, err := os.Stat(dst); err == nil {
			continue
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("registry: probing archive slot: %w", err)
		}
		if err := os.Rename(tenantDir(root, id), dst); err != nil {
			return fmt.Errorf("registry: archiving %s: %w", id, err)
		}
		return nil
	}
}

// openTenantJournal opens (and recovers) one tenant's journal: recover the
// ledger with market.RecoverFromJournal, then switch the broker's sale
// path onto the journal.
func (r *Registry) openTenantJournal(b *market.Broker, dir string) (*journal.Journal, error) {
	j, err := journal.Open(filepath.Join(dir, journalDir), journal.Options{
		SegmentBytes: r.cfg.SegmentBytes,
		Sync:         r.cfg.Sync,
		SyncEvery:    r.cfg.SyncEvery,
		Telemetry:    r.cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	closeOnErr := func(err error) (*journal.Journal, error) {
		//lint:ignore no-dropped-error best-effort cleanup; the recovery failure is what gets reported
		j.Close()
		return nil, err
	}
	if _, err := market.RecoverFromJournal(b, j); err != nil {
		return closeOnErr(fmt.Errorf("registry: %w", err))
	}
	b.SetJournal(j)
	return j, nil
}

// recoverTenants rebuilds every live tenant found under root. Dot-prefixed
// entries (the archive) and stray files are skipped; a tenant that fails
// to recover fails Open — better a loud restart than silently trading
// without a tenant's ledger.
func (r *Registry) recoverTenants() error {
	entries, err := os.ReadDir(r.cfg.Root)
	if err != nil {
		return fmt.Errorf("registry: scanning %s: %w", r.cfg.Root, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidID(e.Name()) {
			continue
		}
		m, curves, err := r.recoverTenant(e.Name())
		if err != nil {
			return fmt.Errorf("registry: recovering tenant %s: %w", e.Name(), err)
		}
		r.publish(m)
		r.logf("registry: recovered market %s (%s): %d sales, revenue %.2f, %s",
			m.ID, m.Spec.Source(), m.Broker.SaleCount(), m.Broker.TotalRevenue(), curves)
	}
	return nil
}

// recoverTenant rebuilds one market from its directory: re-run the listing
// pipeline from the manifest, serving the error curves from curves.json
// where their inputs still match, then recover the ledger from the
// tenant's journal. It also reports, for the log, where the curves came
// from.
func (r *Registry) recoverTenant(id string) (*Market, string, error) {
	dir := tenantDir(r.cfg.Root, id)
	spec, err := readManifest(dir)
	if err != nil {
		return nil, "", err
	}
	if spec.ID != id {
		return nil, "", fmt.Errorf("manifest id %q does not match directory %q", spec.ID, id)
	}
	var csvData []byte
	if spec.CSV {
		csvData, err = os.ReadFile(filepath.Join(dir, datasetFile))
		if err != nil {
			return nil, "", err
		}
	}
	cache, cacheErr := readCurves(dir)
	b, err := buildBroker(spec, csvData, r.cfg.Commission, cache)
	if err != nil {
		return nil, "", err
	}
	r.countCurves(cache)
	hits, misses := cache.Stats()
	source := fmt.Sprintf("curves from cache (%d)", hits)
	if misses > 0 {
		source = fmt.Sprintf("curves recomputed (%d of %d)", misses, hits+misses)
		if cacheErr != nil {
			source += fmt.Sprintf(": %v", cacheErr)
		}
	}
	if cache.Dirty() {
		if err := writeCurves(dir, cache); err != nil {
			r.logf("registry: market %s: rewriting %s: %v", id, curvesFile, err)
		}
	}
	if r.cfg.Telemetry != nil {
		b.SetTelemetry(r.cfg.Telemetry)
	}
	jnl, err := r.openTenantJournal(b, dir)
	if err != nil {
		return nil, "", err
	}
	return newMarket(spec, b, jnl, r.cfg.Telemetry), source, nil
}
