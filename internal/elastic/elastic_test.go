package elastic

import "testing"

func TestPerfectProvisioningRecoversNothing(t *testing.T) {
	m := RevenueModel{GiBPerVCPU: 4, CXLDiscount: 0.2}
	if m.StrandedFrac() != 0 || m.RecoveredRevenueFrac() != 0 {
		t.Fatal("1:4 provisioning strands nothing")
	}
}

func TestValidationPanics(t *testing.T) {
	bad := []RevenueModel{
		{GiBPerVCPU: 0},
		{GiBPerVCPU: 5},
		{GiBPerVCPU: 3, CXLDiscount: 1.0},
	}
	for i, m := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			m.RecoveredRevenueFrac()
		}()
	}
}
