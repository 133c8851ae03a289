package benchlab

import (
	"github.com/septic-db/septic/internal/webapp/apps"
)

// PaperSpecs returns the three §II-F applications with their recorded
// workloads (12, 14 and 26 requests), in the order the figure lists
// them.
func PaperSpecs() []AppSpec {
	return []AppSpec{
		{
			Name:     "Address Book",
			Prefix:   "ab",
			Schema:   apps.AddressBookSchema(),
			Build:    apps.NewAddressBook,
			Training: apps.AddressBookTraining(),
			Workload: apps.AddressBookWorkload(),
		},
		{
			Name:     "refbase",
			Prefix:   "rb",
			Schema:   apps.RefbaseSchema(),
			Build:    apps.NewRefbase,
			Training: apps.RefbaseTraining(),
			Workload: apps.RefbaseWorkload(),
		},
		{
			Name:     "ZeroCMS",
			Prefix:   "cms",
			Schema:   apps.ZeroCMSSchema(),
			Build:    apps.NewZeroCMS,
			Training: apps.ZeroCMSTraining(),
			Workload: apps.ZeroCMSWorkload(),
		},
	}
}

// WaspMonSpec returns the §III scenario application as a harness spec
// (bench/ replays it beside the three, as the fourth domain).
func WaspMonSpec() AppSpec {
	return AppSpec{
		Name:     "WaspMon",
		Prefix:   "waspmon",
		Schema:   apps.WaspMonSchema(),
		Build:    apps.NewWaspMon,
		Training: apps.WaspMonTraining(),
		Workload: apps.WaspMonWorkload(),
	}
}
