package core

// AheadSlots returns how many of c's slots took an embedding that ran one
// slot ahead instead of embedding inside their own Place.
func AheadSlots(c *Controller) int { return c.aheadSlots }
