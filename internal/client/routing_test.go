package client

import "ips/internal/model"

// route and dualTargets look one region up in the current routing
// snapshot by name, for tests that pick victims by ownership.

func (c *Client) route(region string, id model.ProfileID) string {
	auth, _ := c.dualTargets(region, id)
	return auth
}

func (c *Client) dualTargets(region string, id model.ProfileID) (auth, old string) {
	rs := c.routes.Load().region(region)
	if rs == nil {
		return "", ""
	}
	return rs.owners(id)
}
