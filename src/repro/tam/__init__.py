"""The Threaded Abstract Machine substrate (Figure 12's execution model)."""
