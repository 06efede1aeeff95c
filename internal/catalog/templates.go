package catalog

import (
	"fmt"

	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/vmi"
)

// Template describes one synthetic VMI to build: the evaluation workload
// unit. Sizes are paper-scale bytes; see content.go for scaling.
type Template struct {
	// Name identifies the image (Table II's "VMI name").
	Name string
	// Primaries is the user-requested primary package set PS.
	Primaries []string
	// ChurnBytes/ChurnFiles size the instance-unique system churn (logs,
	// caches, spools) written outside package management. Every storage
	// system must either store (Mirage/Hemera/qcow2), compress (gzip) or
	// semantically discard (Expelliarmus) this content.
	ChurnBytes int64
	ChurnFiles int
	// SharedChurnBytes/Files size churn that is identical across a build
	// series (the successive IDE builds of Fig. 3c share most build
	// artifacts; only ~100 MB differs between builds).
	SharedChurnBytes int64
	SharedChurnFiles int
	// UserDataBytes/Files size the user Data component (home directories),
	// preserved verbatim by every system.
	UserDataBytes int64
	UserDataFiles int
	// SeriesSeed keys content shared across a series (shared churn, user
	// data); InstanceSeed keys instance-unique content.
	SeriesSeed   uint64
	InstanceSeed uint64
}

const kfiles = 1000

// tpl builds a standard template: series and instance seeds derive from
// the name so every template is unique and reproducible.
func tpl(name string, churnMB int64, churnFiles int, primaries ...string) Template {
	return Template{
		Name:          name,
		Primaries:     primaries,
		ChurnBytes:    churnMB * mb,
		ChurnFiles:    churnFiles,
		UserDataBytes: 10 * mb,
		UserDataFiles: 250,
		SeriesSeed:    seedString("series/" + name),
		InstanceSeed:  seedString("instance/" + name),
	}
}

// Paper19 returns the 19 evaluation images of Table II in upload order.
// Primary package sets follow the paper's stack descriptions; churn and
// user-data sizes are calibrated so mounted sizes and file counts land
// near Table II (`expelbench -exp table2` prints paper next to measured).
func Paper19() []Template {
	desktop := []string{
		"xorg", "desktop-base", "libreoffice", "thunderbird",
		"vsftpd", "nfs-kernel-server", "postfix", "dovecot",
		"apache2", "mysql-server", "php7",
	}
	for i := 0; i < 110; i++ {
		desktop = append(desktop, fmt.Sprintf("desktop-pkg-%03d", i))
	}
	ide := Template{
		Name:             "IDE",
		Primaries:        []string{"eclipse", "maven", "python3-full"},
		ChurnBytes:       105 * mb,
		ChurnFiles:       2500,
		SharedChurnBytes: 600 * mb,
		SharedChurnFiles: 6 * kfiles,
		UserDataBytes:    12 * mb,
		UserDataFiles:    300,
		SeriesSeed:       seedString("series/IDE"),
		InstanceSeed:     seedString("instance/IDE"),
	}
	return []Template{
		tpl("Mini", 180, 8*kfiles),
		tpl("Redis", 175, 7800, "redis-server"),
		tpl("PostgreSql", 165, 7*kfiles, "postgresql-9.5"),
		tpl("Django", 175, 7200, "python-django"),
		tpl("RabbitMQ", 165, 7*kfiles, "rabbitmq-server"),
		tpl("Base", 155, 6400, "apache2", "mysql-server", "php7"),
		tpl("CouchDB", 145, 6600, "couchdb"),
		tpl("Cassandra", 700, 10*kfiles, "cassandra"),
		tpl("Tomcat", 160, 5800, "tomcat8"),
		tpl("Lapp", 150, 5500, "apache2", "postgresql-9.5", "php7", "pgadmin", "php-pgsql"),
		tpl("Lemp", 250, 6500, "nginx", "mysql-server", "php-fpm"),
		tpl("MongoDb", 190, 7400, "mongodb-org"),
		tpl("OwnCloud", 450, 14*kfiles, "owncloud"),
		tpl("Desktop", 120, 4500, desktop...),
		tpl("ApacheSolr", 400, 10500, "apache-solr"),
		ide,
		tpl("Jenkins", 600, 11*kfiles, "jenkins"),
		tpl("Redmine", 400, 20*kfiles, "redmine"),
		tpl("ElasticStack", 600, 9500, "elasticsearch", "logstash", "kibana"),
	}
}

// Paper4 returns the four images shared with the Mirage and Hemera studies
// (Fig. 3a / Fig. 4a): Mini, Base, Desktop, IDE, in that order.
func Paper4() []Template {
	var out []Template
	for _, t := range Paper19() {
		switch t.Name {
		case "Mini", "Base", "Desktop", "IDE":
			out = append(out, t)
		}
	}
	return out
}

// Find returns the named template from Paper19.
func Find(name string) (Template, bool) {
	for _, t := range Paper19() {
		if t.Name == name {
			return t, true
		}
	}
	return Template{}, false
}

// IDEBuilds returns n successive builds of the IDE image (the Fig. 3c
// workload): identical packages and user data, identical shared build
// artifacts, but ~105 MB of build-specific churn each.
func IDEBuilds(n int) []Template {
	base, ok := Find("IDE")
	if !ok {
		panic("catalog: IDE template missing")
	}
	out := make([]Template, n)
	for i := 0; i < n; i++ {
		t := base
		t.Name = fmt.Sprintf("IDE-build-%02d", i+1)
		// Shared churn and user data stay keyed by the series seed;
		// instance churn varies per build.
		t.InstanceSeed = seedString(fmt.Sprintf("instance/IDE-build-%02d", i+1))
		out[i] = t
	}
	return out
}

// churnRoots are the guest directories receiving system churn, the ones
// a retrieval's reset clears.
var churnRoots = vmi.ChurnRoots

// UserDataRoots mirrors vmi.UserDataRoots for workload generation.
var UserDataRoots = vmi.UserDataRoots

// genDataFiles deterministically spreads paperBytes over paperFiles files
// under the given roots.
func genDataFiles(roots []string, sub string, seed uint64, paperBytes int64, paperFiles int) []pkgfmt.File {
	realCount := RealFiles(paperFiles)
	if realCount == 0 || paperBytes <= 0 {
		return nil
	}
	sizes := splitSizes(seed, Real(paperBytes), realCount)
	files := make([]pkgfmt.File, realCount)
	r := newRNG(seed, 0xDA7A)
	for i, size := range sizes {
		root := roots[r.intn(len(roots))]
		files[i] = pkgfmt.File{
			Path: fmt.Sprintf("%s/%s/d%05d.dat", root, sub, i),
			Data: GenContent(splitmix64(seed^uint64(0xF00D+i)), int(size)),
		}
	}
	return files
}

// ChurnFileSet generates the template's system churn: the shared series
// component plus the instance-unique component.
func (t Template) ChurnFileSet() []pkgfmt.File {
	var out []pkgfmt.File
	if t.SharedChurnBytes > 0 {
		out = append(out, genDataFiles(churnRoots, "shared",
			t.SeriesSeed, t.SharedChurnBytes, t.SharedChurnFiles)...)
	}
	out = append(out, genDataFiles(churnRoots, "run",
		t.InstanceSeed, t.ChurnBytes, t.ChurnFiles)...)
	return out
}

// UserDataFileSet generates the template's user data, keyed by the series
// seed so rebuilt images carry identical user data.
func (t Template) UserDataFileSet() []pkgfmt.File {
	return genDataFiles(UserDataRoots, "user",
		splitmix64(t.SeriesSeed^0x05E4), t.UserDataBytes, t.UserDataFiles)
}
