package bench

// PaperRow holds the published Table II values for one VMI.
type PaperRow struct {
	Name      string
	MountedGB float64
	Files     int
	SimG      float64
	PublishS  float64
	RetrieveS float64
}

// PaperTableII reproduces Table II of the paper (PAPER.md) verbatim, used
// as the reference columns of the regenerated table.
var PaperTableII = []PaperRow{
	{"Mini", 1.913, 75749, 0.00, 39.52, 24.64},
	{"Redis", 1.914, 75796, 0.97, 10.28, 22.05},
	{"PostgreSql", 1.963, 77497, 0.59, 39.699, 33.91},
	{"Django", 1.969, 79751, 0.71, 18.916, 27.30},
	{"RabbitMQ", 1.956, 77596, 0.56, 25.620, 33.87},
	{"Base", 1.986, 78471, 0.89, 42.236, 47.17},
	{"CouchDB", 1.965, 77725, 0.70, 37.99, 42.58},
	{"Cassandra", 2.531, 79740, 0.71, 42.58, 35.66},
	{"Tomcat", 2.049, 76356, 0.37, 60.65, 36.37},
	{"Lapp", 2.107, 77816, 0.53, 56.71, 61.79},
	{"Lemp", 2.112, 77360, 0.97, 25.093, 57.11},
	{"MongoDb", 2.110, 75820, 0.15, 90.465, 29.33},
	{"OwnCloud", 2.378, 90667, 0.76, 80.942, 100.43},
	{"Desktop", 2.233, 90338, 0.50, 201.721, 102.34},
	{"ApacheSolr", 2.338, 79161, 0.84, 71.555, 92.57},
	{"IDE", 2.727, 81200, 0.52, 135.333, 63.62},
	{"Jenkins", 2.515, 79695, 0.87, 63.504, 81.24},
	{"Redmine", 2.363, 95309, 0.79, 112.908, 97.08},
	{"ElasticStack", 2.671, 103719, 0.64, 166.001, 99.91},
}

// PaperTableIIRow returns the reference row for a VMI name.
func PaperTableIIRow(name string) (PaperRow, bool) {
	for _, r := range PaperTableII {
		if r.Name == name {
			return r, true
		}
	}
	return PaperRow{}, false
}

// PaperFig3 records the cumulative repository sizes (GB) the paper reports
// at the end of each Fig. 3 scenario.
var PaperFig3 = map[string]map[string]float64{
	"fig3a": { // 4 VMIs
		"qcow2": 8.85, "qcow2+gzip": 3.2, "mirage": 3.4, "hemera": 3.4, "expelliarmus": 2.3,
	},
	"fig3b": { // 19 VMIs
		"qcow2": 41.81, "qcow2+gzip": 15.0, "mirage": 8.81, "hemera": 8.81, "expelliarmus": 2.75,
	},
	"fig3c": { // 40 IDE builds
		"qcow2": 109.92, "qcow2+gzip": 48.0, "mirage": 6.4, "hemera": 6.4, "expelliarmus": 2.94,
	},
}

// PaperHeadline holds the §VI-B headline ratios for the 40-IDE scenario:
// Expelliarmus is 16x better than gzip and 2.2x better than Mirage/Hemera,
// which are in turn 7.5x better than gzip.
var PaperHeadline = struct {
	ExpelVsGzip   float64
	ExpelVsMirage float64
	MirageVsGzip  float64
}{16, 2.2, 7.5}
