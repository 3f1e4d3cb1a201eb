-- A small example profile: points of interest and places from nodes;
-- roads, waterways, water areas and buildings from ways.  Run it with
--   python -m tilemaker_ray --input in.pbf --output out.mbtiles \
--       --config config.json --process process-example.lua
-- where config.json defines the layers named below.

-- Nodes will only be processed if one of these keys is present
node_keys = { "amenity", "historic", "leisure", "place", "shop", "tourism" }

-- Assign nodes to a layer, and set attributes, based on OSM tags
function node_function()
	local amenity = Find("amenity")
	local shop = Find("shop")
	if amenity ~= "" or shop ~= "" then
		Layer("poi", false)
		if amenity ~= "" then Attribute("class", amenity)
		else Attribute("class", shop) end
		Attribute("name:latin", Find("name"))
		AttributeNumeric("rank", 3)
	end

	-- Places go to a separate layer
	local place = Find("place")
	if place ~= "" then
		Layer("place", false)
		Attribute("class", place)
		Attribute("name:latin", Find("name"))
		if place == "city" then
			AttributeNumeric("rank", 4)
			MinZoom(3)
		elseif place == "town" then
			AttributeNumeric("rank", 6)
			MinZoom(6)
		else
			AttributeNumeric("rank", 9)
			MinZoom(10)
		end
	end
end

-- Similarly for ways
function way_function()
	local highway = Find("highway")
	local waterway = Find("waterway")
	local building = Find("building")
	if highway ~= "" then
		Layer("transportation", false)
		if highway == "unclassified" or highway == "residential" then
			highway = "minor"
		end
		Attribute("class", highway)
		local name = Find("name")
		if name ~= "" then
			Layer("transportation_name", false)
			Attribute("class", highway)
			Attribute("name:latin", name)
		end
	end
	if waterway == "stream" or waterway == "river" or waterway == "canal" then
		Layer("waterway", false)
		Attribute("class", waterway)
		AttributeNumeric("intermittent", 0)
	end
	if Find("natural") == "water" then
		Layer("water", true)
		if Find("water") == "river" then
			Attribute("class", "river")
		else
			Attribute("class", "lake")
		end
	end
	if building ~= "" then
		Layer("building", true)
	end
end
