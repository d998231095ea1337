package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The committed references: for seed 1 on the full profile, the digest of
// every generated trace and the sha256 and candidate count of every job's
// report; at every seed, the hand-written Table 4 oracle.
//
//go:embed golden/seed1.json golden/table4.txt
var goldenFS embed.FS

type goldenReport struct {
	SHA256     string `json:"sha256"`
	Candidates int    `json:"candidates"`
}

type goldenFile struct {
	// Digests maps "<program>-<records>-seed<generator seed>" to traceDigest
	// of that trace, for every trace a seed-1 run generates.
	Digests map[string]string `json:"digests"`
	// Reports maps a workload to its jobs' references in job order; a single
	// entry applies to every job.
	Reports map[string][]goldenReport `json:"reports"`
}

var golden = func() goldenFile {
	var g goldenFile
	buf, err := goldenFS.ReadFile("golden/seed1.json")
	if err == nil {
		err = json.Unmarshal(buf, &g)
	}
	if err != nil {
		panic(fmt.Sprintf("golden/seed1.json: %v", err))
	}
	return g
}()

func digestKey(program string, records int, seed int64) string {
	return fmt.Sprintf("%s-%d-seed%d", program, records, seed)
}

// goldenFor returns the committed reference of job j of a workload.
func goldenFor(p profile, seed int64, workload string, j int) (goldenReport, bool) {
	if !p.golden || seed != 1 {
		return goldenReport{}, false
	}
	refs := golden.Reports[workload]
	switch {
	case len(refs) == 1:
		return refs[0], true
	case j < len(refs):
		return refs[j], true
	}
	return goldenReport{}, false
}

func reportRef(report string, candidates int) goldenReport {
	sum := sha256.Sum256([]byte(report))
	return goldenReport{SHA256: hex.EncodeToString(sum[:]), Candidates: candidates}
}

// table4 maps each subject to the least number of harmful verdicts the
// hand-written oracle requires of it.
var table4 = func() map[string]int {
	buf, err := goldenFS.ReadFile("golden/table4.txt")
	if err != nil {
		panic(err)
	}
	out := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(buf))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		n, err := strconv.Atoi(f[len(f)-1])
		if len(f) != 3 || f[1] != "detected" || err != nil {
			panic(fmt.Sprintf("golden/table4.txt: bad line %q", sc.Text()))
		}
		out[f[0]] = n
	}
	return out
}()

// table4MinHarmful is the oracle's floor for one subject; a subject the
// oracle does not list can never pass.
func table4MinHarmful(id string) int {
	if n, ok := table4[id]; ok {
		return n
	}
	return 1 << 30
}

// writeGolden commits what the untraced seed-1 runs observed as the new
// references, with the digests of the traces a seed-1 run generates.
func writeGolden(path string, runs []*result) error {
	p := fullProfile
	g := goldenFile{Digests: map[string]string{}, Reports: map[string][]goldenReport{}}
	digest := func(records int, seed int64, sh shape) {
		g.Digests[digestKey(sh.program, records, seed)] = traceDigest(synth(records, seed, sh))
	}
	digest(p.records, 1, boundedShape)
	digest(p.handlerRecords, 1, handlerShape)
	for k := 0; k < servedTraces; k++ {
		digest(p.servedRecords, servedSeed(1, k), boundedShape)
	}
	for _, r := range runs {
		if r.Traced || r.Seed != 1 || r.Failed > 0 {
			return fmt.Errorf("references come from clean untraced seed-1 runs; got %s seed %d traced=%v failed=%d",
				r.Workload, r.Seed, r.Traced, r.Failed)
		}
		// Jobs are referenced in order from job 0, as far as they were all
		// observed; a workload whose jobs all agree needs one entry.
		var refs []goldenReport
		same := true
		for j := 0; ; j++ {
			ref, ok := r.observed[j]
			if !ok {
				break
			}
			refs = append(refs, ref)
			same = same && ref == refs[0]
		}
		if same && len(refs) > 1 {
			refs = refs[:1]
		}
		g.Reports[r.Workload] = refs
	}
	buf, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
