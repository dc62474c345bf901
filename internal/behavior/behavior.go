// Package behavior reproduces §VI-B / Table XI: characterizing the malicious
// behaviours of the largest similar-code groups. The paper labels groups
// from (1) security-report content when a member was reported and (2) an
// LLM-plus-manual-inspection pass otherwise; our substitute for (2) is a
// deterministic rule engine over package source — the curated-label step is
// what the rules encode.
package behavior

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"malgraph/internal/codegen"
	"malgraph/internal/core"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/reports"
)

// Characterize returns the behaviour labels for one artifact from static
// inspection of its source.
func Characterize(a *ecosys.Artifact) []codegen.Behavior {
	src := a.MergedSource()
	lower := strings.ToLower(src)
	set := make(map[codegen.Behavior]bool)
	add := func(bs ...codegen.Behavior) {
		for _, b := range bs {
			set[b] = true
		}
	}
	has := func(needles ...string) bool {
		for _, n := range needles {
			if !strings.Contains(lower, n) {
				return false
			}
		}
		return true
	}
	anyOf := func(needles ...string) bool {
		for _, n := range needles {
			if strings.Contains(lower, n) {
				return true
			}
		}
		return false
	}

	if has("environ", "httpsconnection") || has("process.env", "https.request") || has("env.to_h", "net::http") {
		add(codegen.BehaviorDataExfiltration, codegen.BehaviorSpyware, codegen.BehaviorPIICollecting)
	}
	if has("b64decode", "os.system") || has("'base64'", "cp.exec") || has("b64decode", "exec(") ||
		has("eval(buffer.from") {
		add(codegen.BehaviorObfuscation)
	}
	if anyOf("powershell") {
		add(codegen.BehaviorPowerShell)
		if anyOf("hidden", "encodedcommand") {
			add(codegen.BehaviorObfuscation)
		}
	}
	if has("socket", "recv", "popen") || has("net.connect", "cp.exec") || has("tcpsocket", "loop") {
		add(codegen.BehaviorBackdoor, codegen.BehaviorC2Channel)
	}
	if has("gethostbyname", "environ") || has("dns.lookup", "process.env") {
		add(codegen.BehaviorDNSTunneling, codegen.BehaviorDataExfiltration)
	}
	if anyOf("/beacon") {
		add(codegen.BehaviorBeaconing, codegen.BehaviorFingerprinting, codegen.BehaviorC2Channel)
	}
	if anyOf("/pixel.gif") {
		add(codegen.BehaviorBeaconing, codegen.BehaviorSpyware)
	}
	if has("0x") && anyOf("钱包", "替换", "clipboard", "wallet") {
		add(codegen.BehaviorWalletReplace, codegen.BehaviorObfuscation)
	}
	if anyOf("discordapp", "discord.com") {
		add(codegen.BehaviorDiscordDelivery)
	}
	if anyOf("dl.dropbox") {
		add(codegen.BehaviorDropboxFetch)
	}
	if anyOf("webhook", "api.telegram.org") {
		add(codegen.BehaviorWebhookAbuse, codegen.BehaviorDataExfiltration)
	}
	if anyOf("aws_secret") {
		add(codegen.BehaviorCredentialTheft)
	}
	if strings.Contains(a.Description, "official") || containsLicenseSpoof(a) {
		add(codegen.BehaviorLicenseSpoofing)
	}

	return slices.Sorted(maps.Keys(set))
}

func containsLicenseSpoof(a *ecosys.Artifact) bool {
	for _, f := range a.Files {
		if strings.HasSuffix(f.Path, "README.md") && strings.Contains(f.Content, "MIT License") {
			return true
		}
	}
	return false
}

// GroupRow is one Table XI row: a large similar-code group and its
// behaviours.
type GroupRow struct {
	Eco       ecosys.Ecosystem
	Size      int
	Behaviors []string
	Source    string // "report" (§VI-B path 1) or "inspection" (path 2)
}

// TableXI characterizes every similar subgraph with at least minSize members
// (paper: 100), preferring report-derived labels when any member was covered
// by a security report.
func TableXI(mg *core.MalGraph, minSize int) []GroupRow {
	var rows []GroupRow
	for _, members := range mg.PackageSubgraphs(graph.Similar, minSize) {
		row := GroupRow{Size: len(members)}
		if e, ok := mg.EntryByNodeID(members[0]); ok {
			row.Eco = e.Coord.Ecosystem
		}

		// Path 1: report content.
		labelSet := make(map[string]bool)
		for _, id := range members {
			for _, rep := range mg.ReportsByPackage(id) {
				for _, b := range reports.ExtractBehaviors(rep.Body) {
					labelSet[b] = true
				}
			}
			if len(labelSet) > 0 {
				break
			}
		}
		if len(labelSet) > 0 {
			row.Source = "report"
		} else {
			// Path 2: code inspection of up to 5 representative members.
			row.Source = "inspection"
			inspected := 0
			for _, id := range members {
				e, ok := mg.EntryByNodeID(id)
				if !ok || e.Artifact == nil {
					continue
				}
				for _, b := range Characterize(e.Artifact) {
					labelSet[string(b)] = true
				}
				inspected++
				if inspected >= 5 {
					break
				}
			}
		}
		for b := range labelSet {
			row.Behaviors = append(row.Behaviors, b)
		}
		sort.Strings(row.Behaviors)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Eco != rows[j].Eco {
			return rows[i].Eco < rows[j].Eco
		}
		return rows[i].Size > rows[j].Size
	})
	return rows
}
