package measure

// ApprovalReads reports the approval entries every Victims call so far
// has read (see approvalReads).
func ApprovalReads() int64 { return approvalReads.Load() }
