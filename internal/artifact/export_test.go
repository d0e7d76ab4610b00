package artifact

// WriteJSONReference is the encoding/json renderer WriteJSON must match
// byte for byte, exported to the external test package.
var WriteJSONReference = writeJSONReference
